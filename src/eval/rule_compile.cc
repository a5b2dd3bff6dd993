#include "src/eval/rule_compile.h"

#include <cstdio>
#include <set>

#include "src/eval/aggregate_eval.h"

namespace dmtl {

namespace {

uint32_t InternConst(std::vector<Value>* pool, const Value& v) {
  for (size_t i = 0; i < pool->size(); ++i) {
    if ((*pool)[i] == v) return static_cast<uint32_t>(i);
  }
  pool->push_back(v);
  return static_cast<uint32_t>(pool->size() - 1);
}

// Appends the unification plan of one argument list under the running
// bound-variable set, updating it for kBind steps. `signature` marks the
// positions an index key covers.
void CompileUnify(const std::vector<Term>& args, uint64_t signature,
                  std::vector<char>* bound, std::vector<Value>* pool,
                  std::vector<UnifyStep>* out, std::vector<int>* binds) {
  for (size_t pos = 0; pos < args.size(); ++pos) {
    const Term& t = args[pos];
    UnifyStep u;
    u.pos = static_cast<uint16_t>(pos);
    u.in_key = pos < 64 && ((signature >> pos) & 1) != 0;
    if (t.is_constant()) {
      u.kind = UnifyStep::Kind::kCheckConst;
      u.const_index = InternConst(pool, t.value());
    } else if ((*bound)[t.var()]) {
      u.kind = UnifyStep::Kind::kCheckVar;
      u.var = t.var();
    } else {
      u.kind = UnifyStep::Kind::kBind;
      u.var = t.var();
      (*bound)[t.var()] = 1;
      if (binds != nullptr) binds->push_back(t.var());
    }
    out->push_back(u);
  }
}

std::string PathToString(const std::vector<OpPathStep>& path) {
  std::string out = "[";
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " ";
    out += std::string(MtlOpToString(path[i].op)) + path[i].range.ToString();
  }
  return out + "]";
}

}  // namespace

const char* OpCodeToString(OpCode op) {
  switch (op) {
    case OpCode::kLoadIndex:
      return "LOAD_INDEX";
    case OpCode::kProbe:
      return "PROBE";
    case OpCode::kIntersectTemporal:
      return "INTERSECT_TEMPORAL";
    case OpCode::kApplyUnaryChain:
      return "APPLY_UNARY_CHAIN";
    case OpCode::kEvalBuiltin:
      return "EVAL_BUILTIN";
    case OpCode::kNegate:
      return "NEGATE";
    case OpCode::kSplitTimestamp:
      return "SPLIT_TIMESTAMP";
    case OpCode::kEmit:
      return "EMIT";
  }
  return "?";
}

RuleProgram RuleCompiler::Compile(const RulePlanner& planner,
                                  const Database& db, const Database* delta,
                                  int delta_occurrence, PlannerStats* stats) {
  const Rule& rule = planner.rule_;
  RuleProgram prog;
  prog.num_vars = rule.num_vars();

  RulePlanner::ExecutionPlan plan =
      planner.BuildPlan(db, delta, delta_occurrence, stats);
  prog.plan_cost = plan.total_cost;

  std::vector<Instr> body;
  std::vector<char> bound(rule.num_vars(), 0);
  for (const RulePlanner::ExecutionPlan::Step& step : plan.steps) {
    const size_t lit_slot = prog.literals.size();
    const size_t body_index = planner.positive_literals_[step.p];
    const RulePlanner::LiteralPlan& lplan = planner.literal_plans_[step.p];

    LiteralCode lc;
    lc.body_index = body_index;
    lc.delta_offset = step.literal_delta_offset;
    switch (lplan.shape) {
      case RulePlanner::LiteralShape::kBareAtom:
        lc.shape = LitShape::kBareAtom;
        break;
      case RulePlanner::LiteralShape::kUnaryChain:
        lc.shape = LitShape::kUnaryChain;
        lc.path = lplan.atoms[0].path;
        break;
      case RulePlanner::LiteralShape::kGeneral:
        lc.shape = LitShape::kGeneral;
        break;
    }
    prog.literals.push_back(std::move(lc));

    std::vector<const RelationalAtom*> atoms;
    rule.body[body_index].metric.CollectRelationalAtoms(&atoms);
    for (size_t a = 0; a < atoms.size(); ++a) {
      const RelationalAtom& atom = *atoms[a];
      AtomCode ac;
      ac.pred = atom.predicate;
      ac.lit = lit_slot;
      ac.arity = atom.args.size();
      ac.is_delta = static_cast<int>(a) == step.literal_delta_offset;
      ac.prunable = lplan.atoms[a].prunable;
      ac.signature = step.probes[a].signature;
      ac.path = lplan.atoms[a].path;
      ac.num_tuples_at_compile =
          step.probes[a].rel != nullptr ? step.probes[a].rel->NumTuples() : 0;
      // Index-key recipe: the signature's positions in ascending order,
      // matching BoundIndex::positions for this signature.
      for (size_t pos = 0; pos < ac.arity && pos < 64; ++pos) {
        if (((ac.signature >> pos) & 1) == 0) continue;
        const Term& t = atom.args[pos];
        ValueRef r;
        if (t.is_constant()) {
          r.const_index = InternConst(&prog.consts, t.value());
        } else {
          r.var = t.var();
        }
        ac.key.push_back(r);
      }
      CompileUnify(atom.args, ac.signature, &bound, &prog.consts, &ac.unify,
                   &ac.binds);
      body.push_back(Instr{OpCode::kProbe,
                           static_cast<uint32_t>(prog.atoms.size())});
      prog.atoms.push_back(std::move(ac));
    }
    body.push_back(Instr{lplan.shape == RulePlanner::LiteralShape::kUnaryChain
                             ? OpCode::kApplyUnaryChain
                             : OpCode::kIntersectTemporal,
                         static_cast<uint32_t>(lit_slot)});
  }

  for (size_t i : planner.early_builtins_) {
    body.push_back(Instr{OpCode::kEvalBuiltin, static_cast<uint32_t>(i)});
  }
  for (size_t i : planner.negated_literals_) {
    body.push_back(Instr{OpCode::kNegate, static_cast<uint32_t>(i)});
  }
  for (size_t i : planner.timestamp_builtins_) {
    body.push_back(Instr{OpCode::kSplitTimestamp, static_cast<uint32_t>(i)});
  }
  for (size_t i : planner.late_builtins_) {
    body.push_back(Instr{OpCode::kEvalBuiltin, static_cast<uint32_t>(i)});
  }
  body.push_back(Instr{OpCode::kEmit, 0});

  prog.head.pred = rule.head.predicate;
  const bool aggregate = rule.head.aggregate.has_value();
  for (const Term& t : aggregate ? AggregateEvaluator::WitnessTerms(rule)
                                 : rule.head.args) {
    ValueRef r;
    if (t.is_constant()) {
      r.const_index = InternConst(&prog.consts, t.value());
    } else {
      r.var = t.var();
    }
    prog.head.args.push_back(r);
  }
  if (!aggregate) prog.head.ops = rule.head.ops;

  prog.code.reserve(prog.atoms.size() + body.size());
  for (size_t s = 0; s < prog.atoms.size(); ++s) {
    prog.code.push_back(Instr{OpCode::kLoadIndex, static_cast<uint32_t>(s)});
  }
  prog.prologue = prog.atoms.size();
  prog.code.insert(prog.code.end(), body.begin(), body.end());
  return prog;
}

ChainProgram RuleCompiler::CompileChain(
    const Rule& rule, const ChainAccelerator::ChainInfo& info) {
  ChainProgram cp;
  cp.pred = info.predicate;
  cp.step = info.step;
  cp.positive_guards = info.positive_guards;
  cp.negated_guards = info.negated_guards;
  cp.num_vars = rule.num_vars();

  std::vector<char> bound(rule.num_vars(), 0);
  CompileUnify(rule.head.args, /*signature=*/0, &bound, &cp.consts, &cp.unify,
               nullptr);

  // Guard projection: the head positions whose variables any guard can
  // observe. Tuples agreeing on these positions get identical allowed sets
  // (non-head guard variables are existential by Detect's contract), so the
  // VM's cache is keyed by the projection instead of the full tuple.
  std::vector<int> gv;
  for (size_t i : info.positive_guards) rule.body[i].metric.CollectVars(&gv);
  for (size_t i : info.negated_guards) rule.body[i].metric.CollectVars(&gv);
  std::set<int> guard_vars(gv.begin(), gv.end());
  std::set<int> taken;
  for (size_t pos = 0; pos < rule.head.args.size(); ++pos) {
    const Term& t = rule.head.args[pos];
    if (t.is_variable() && guard_vars.count(t.var()) &&
        taken.insert(t.var()).second) {
      cp.guard_projection.push_back(pos);
    }
  }
  return cp;
}

std::string RuleProgram::Dump(const Rule& rule) const {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g", plan_cost);
  out += "program for: " + rule.ToString() + "\n";
  out += "  vars=" + std::to_string(num_vars) +
         " consts=" + std::to_string(consts.size()) +
         " est_cost=" + buf + "\n";
  auto value_ref = [&](const ValueRef& r) -> std::string {
    if (r.var >= 0) {
      return r.var < static_cast<int>(rule.var_names.size())
                 ? rule.var_names[r.var]
                 : "v" + std::to_string(r.var);
    }
    return consts[r.const_index].ToString();
  };
  for (size_t ip = 0; ip < code.size(); ++ip) {
    const Instr& instr = code[ip];
    std::snprintf(buf, sizeof(buf), "  %02zu %-19s", ip,
                  OpCodeToString(instr.op));
    out += buf;
    switch (instr.op) {
      case OpCode::kLoadIndex:
      case OpCode::kProbe: {
        const AtomCode& a = atoms[instr.arg];
        out += "a" + std::to_string(instr.arg) + " " +
               (a.is_delta ? "delta:" : "") + PredicateName(a.pred) + "/" +
               std::to_string(a.arity);
        if (instr.op == OpCode::kLoadIndex) {
          std::snprintf(buf, sizeof(buf), " sig=0x%llx",
                        static_cast<unsigned long long>(a.signature));
          out += buf;
        } else {
          if (!a.key.empty()) {
            out += " key=[";
            for (size_t k = 0; k < a.key.size(); ++k) {
              if (k > 0) out += ",";
              out += value_ref(a.key[k]);
            }
            out += "]";
          }
          if (!a.binds.empty()) {
            out += " binds=[";
            for (size_t k = 0; k < a.binds.size(); ++k) {
              if (k > 0) out += ",";
              out += rule.var_names[a.binds[k]];
            }
            out += "]";
          }
          out += a.prunable ? " prune" : " no-prune";
        }
        break;
      }
      case OpCode::kIntersectTemporal:
      case OpCode::kApplyUnaryChain: {
        const LiteralCode& lc = literals[instr.arg];
        out += "lit" + std::to_string(instr.arg) + " " +
               rule.body[lc.body_index].ToString(rule.var_names);
        if (instr.op == OpCode::kApplyUnaryChain) {
          out += " path=" + PathToString(lc.path);
        }
        break;
      }
      case OpCode::kEvalBuiltin:
      case OpCode::kNegate:
      case OpCode::kSplitTimestamp:
        out += "body[" + std::to_string(instr.arg) + "] " +
               rule.body[instr.arg].ToString(rule.var_names);
        break;
      case OpCode::kEmit: {
        if (rule.head.aggregate.has_value()) out += "witness ";
        out += PredicateName(head.pred) + "(";
        for (size_t k = 0; k < head.args.size(); ++k) {
          if (k > 0) out += ", ";
          out += value_ref(head.args[k]);
        }
        out += ")";
        for (const HeadAtom::HeadOp& op : head.ops) {
          out += std::string(" dilate:") + MtlOpToString(op.op) +
                 op.range.ToString();
        }
        break;
      }
    }
    out += "\n";
  }
  return out;
}

std::string ChainProgram::Dump(const Rule& rule) const {
  std::string out = "chain kernel for: " + rule.ToString() + "\n";
  out += "  predicate=" + PredicateName(pred) + " step=" + step.ToString();
  out += " guards=" + std::to_string(positive_guards.size()) + "+" +
         std::to_string(negated_guards.size()) + "-";
  out += " cache-key=head[";
  for (size_t i = 0; i < guard_projection.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(guard_projection[i]);
  }
  out += "]\n";
  return out;
}

}  // namespace dmtl
