#include "src/eval/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <set>

#include "src/analysis/safety.h"

namespace dmtl {

Result<RulePlanner> RulePlanner::Create(const Rule& rule) {
  RulePlanner eval(rule);
  DMTL_RETURN_IF_ERROR(eval.Plan());
  return eval;
}

Status RulePlanner::Plan() {
  // Partition literals.
  for (size_t i = 0; i < rule_.body.size(); ++i) {
    const BodyLiteral& lit = rule_.body[i];
    if (lit.kind == BodyLiteral::Kind::kMetric) {
      if (lit.negated) {
        negated_literals_.push_back(i);
      } else {
        positive_literals_.push_back(i);
        occurrence_start_.push_back(num_occurrences_);
        std::vector<const RelationalAtom*> atoms;
        lit.metric.CollectRelationalAtoms(&atoms);
        num_occurrences_ += static_cast<int>(atoms.size());
      }
    } else if (lit.builtin.kind == BuiltinAtom::Kind::kTimestamp) {
      timestamp_builtins_.push_back(i);
    }
  }

  // Variables bound by stage 1 and by timestamp builtins. The planner may
  // evaluate positive literals in any order precisely because this is the
  // same set CheckSafety requires everything downstream to draw from.
  std::set<int> positive_vars = PositiveLiteralVars(rule_);
  std::set<int> ts_dependent;
  for (size_t i : timestamp_builtins_) {
    ts_dependent.insert(rule_.body[i].builtin.var);
  }

  // Classify remaining builtins into early (dependency-ordered) and late.
  std::vector<size_t> pending;
  for (size_t i = 0; i < rule_.body.size(); ++i) {
    const BodyLiteral& lit = rule_.body[i];
    if (lit.kind == BodyLiteral::Kind::kBuiltin &&
        lit.builtin.kind != BuiltinAtom::Kind::kTimestamp) {
      pending.push_back(i);
    }
  }
  std::set<int> early_bound = positive_vars;
  bool changed = true;
  while (changed && !pending.empty()) {
    changed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      const BuiltinAtom& b = rule_.body[*it].builtin;
      std::vector<int> needed;
      if (b.kind == BuiltinAtom::Kind::kAssign) {
        b.expr.CollectVars(&needed);
      } else {
        b.lhs.CollectVars(&needed);
        b.rhs.CollectVars(&needed);
      }
      bool uses_ts = false;
      bool ready = true;
      for (int v : needed) {
        if (ts_dependent.count(v)) uses_ts = true;
        if (!early_bound.count(v)) ready = false;
      }
      if (uses_ts ||
          (b.kind == BuiltinAtom::Kind::kAssign && ts_dependent.count(b.var))) {
        // Depends on a timestamp variable: runs late. Track transitive
        // ts-dependence through its target.
        if (b.kind == BuiltinAtom::Kind::kAssign) ts_dependent.insert(b.var);
        late_builtins_.push_back(*it);
        it = pending.erase(it);
        changed = true;
        continue;
      }
      if (ready) {
        if (b.kind == BuiltinAtom::Kind::kAssign) early_bound.insert(b.var);
        early_builtins_.push_back(*it);
        it = pending.erase(it);
        changed = true;
        continue;
      }
      ++it;
    }
  }
  if (!pending.empty()) {
    // Remaining builtins reference variables bound neither positively nor
    // via resolvable assignment chains; CheckSafety reports these with a
    // better message, but guard here too.
    return Status::UnsafeRule("unresolvable builtin ordering in rule: " +
                              rule_.ToString());
  }
  // Negated literals may not depend on timestamp variables (they run
  // before the timestamp split).
  for (size_t i : negated_literals_) {
    std::vector<int> vars;
    rule_.body[i].metric.CollectVars(&vars);
    for (int v : vars) {
      if (ts_dependent.count(v)) {
        return Status::UnsafeRule(
            "negated literal depends on a timestamp variable: " +
            rule_.ToString());
      }
    }
  }
  // Head operator chain sanity.
  for (const HeadAtom::HeadOp& op : rule_.head.ops) {
    if (op.op != MtlOp::kBoxMinus && op.op != MtlOp::kBoxPlus) {
      return Status::InvalidArgument(
          "head operators must be boxminus/boxplus: " + rule_.ToString());
    }
  }

  // Static join-planner facts per positive literal: each relational atom's
  // root-to-atom operator path, its prunability, and the literal's shape.
  struct Walker {
    std::vector<PathStep> stack;
    std::vector<AtomPlan>* out;

    void Walk(const MetricAtom& m, bool prunable) {
      switch (m.kind()) {
        case MetricAtom::Kind::kRelational:
          out->push_back(AtomPlan{stack, prunable});
          break;
        case MetricAtom::Kind::kUnary:
          stack.push_back(PathStep{m.op(), m.range()});
          Walk(m.left(), prunable);
          stack.pop_back();
          break;
        case MetricAtom::Kind::kBinary:
          stack.push_back(PathStep{m.op(), m.range()});
          // An empty LHS does not force an empty since/until result (it
          // can hold vacuously when rho contains 0), so atoms under the
          // left operand must never be pruned. An empty RHS always makes
          // the result empty.
          Walk(m.left(), false);
          Walk(m.right(), prunable);
          stack.pop_back();
          break;
        case MetricAtom::Kind::kTruth:
        case MetricAtom::Kind::kFalsity:
          break;
      }
    }
  };
  literal_plans_.reserve(positive_literals_.size());
  for (size_t i : positive_literals_) {
    const MetricAtom& metric = rule_.body[i].metric;
    LiteralPlan plan;
    Walker walker;
    walker.out = &plan.atoms;
    walker.Walk(metric, true);
    if (metric.kind() == MetricAtom::Kind::kRelational) {
      plan.shape = LiteralShape::kBareAtom;
    } else {
      const MetricAtom* cur = &metric;
      while (cur->kind() == MetricAtom::Kind::kUnary) cur = &cur->left();
      plan.shape = cur->kind() == MetricAtom::Kind::kRelational
                       ? LiteralShape::kUnaryChain
                       : LiteralShape::kGeneral;
    }
    literal_plans_.push_back(std::move(plan));
  }
  return Status::Ok();
}

// Every ChildWindow step is a dilation, and dilation commutes with taking
// hulls, so expanding the row hull through the operator path yields a
// superset of (the hull of) the exact per-set child window.
Interval RulePlanner::ExpandPruneWindow(Interval window,
                                          const std::vector<PathStep>& path) {
  for (const PathStep& s : path) {
    switch (s.op) {
      case MtlOp::kDiamondMinus:
      case MtlOp::kBoxMinus:
        window = window.DiamondPlus(s.range);
        break;
      case MtlOp::kDiamondPlus:
      case MtlOp::kBoxPlus:
        window = window.DiamondMinus(s.range);
        break;
      case MtlOp::kSince: {
        auto span = Interval::Make(Bound::Closed(Rational(0)), s.range.hi());
        if (span.has_value()) window = window.DiamondPlus(*span);
        break;
      }
      case MtlOp::kUntil: {
        auto span = Interval::Make(Bound::Closed(Rational(0)), s.range.hi());
        if (span.has_value()) window = window.DiamondMinus(*span);
        break;
      }
    }
  }
  return window;
}

RulePlanner::ExecutionPlan RulePlanner::BuildPlan(
    const Database& db, const Database* delta, int delta_occurrence,
    PlannerStats* stats) const {
  ExecutionPlan plan;
  const size_t n = positive_literals_.size();

  struct LitInfo {
    std::vector<const RelationalAtom*> atoms;
    int delta_offset = -1;
  };
  std::vector<LitInfo> info(n);
  for (size_t p = 0; p < n; ++p) {
    rule_.body[positive_literals_[p]].metric.CollectRelationalAtoms(
        &info[p].atoms);
    if (delta_occurrence >= 0) {
      int rel = delta_occurrence - occurrence_start_[p];
      if (rel >= 0 && rel < static_cast<int>(info[p].atoms.size())) {
        info[p].delta_offset = rel;
      }
    }
  }

  std::vector<char> bound(rule_.num_vars(), 0);

  auto atom_signature = [](const RelationalAtom& atom,
                           const std::vector<char>& b) -> uint64_t {
    uint64_t sig = 0;
    for (size_t i = 0; i < atom.args.size() && i < 64; ++i) {
      const Term& t = atom.args[i];
      if (t.is_constant() || b[t.var()]) sig |= uint64_t{1} << i;
    }
    return sig;
  };

  auto source_rel = [&](const LitInfo& li, size_t a) -> const Relation* {
    const Database* source =
        static_cast<int>(a) == li.delta_offset && delta != nullptr ? delta
                                                                   : &db;
    return source->Find(li.atoms[a]->predicate);
  };

  // Estimated enumeration cost of one literal given the currently bound
  // variables: per atom, the relation's tuple count shrunk 4x per bound
  // argument position (a crude selectivity model - it only needs to *rank*
  // literals, with cardinality snapshots supplying the scale). Atoms over
  // absent relations cost nothing: they produce zero groundings and kill
  // the row set immediately.
  auto literal_cost = [&](size_t p) -> double {
    std::vector<char> b = bound;
    double cost = 0.0;
    for (size_t a = 0; a < info[p].atoms.size(); ++a) {
      const RelationalAtom& atom = *info[p].atoms[a];
      const Relation* rel = source_rel(info[p], a);
      if (rel != nullptr && !rel->IsEmpty()) {
        double fanout = static_cast<double>(rel->NumTuples());
        int bound_args = std::popcount(atom_signature(atom, b));
        fanout /= std::pow(4.0, std::min(bound_args, 16));
        cost += fanout < 1.0 ? 1.0 : fanout;
      }
      for (const Term& t : atom.args) {
        if (t.is_variable()) b[t.var()] = 1;
      }
    }
    return cost;
  };

  // Greedy selection: the semi-naive delta literal is pinned first (the
  // delta is small by construction and every pass must visit it anyway);
  // afterwards always the cheapest remaining literal under the current
  // bound-variable set, ties broken by body order for determinism.
  std::vector<char> used(n, 0);
  int pinned = -1;
  for (size_t p = 0; p < n; ++p) {
    if (info[p].delta_offset >= 0) {
      pinned = static_cast<int>(p);
      break;
    }
  }
  for (size_t step_index = 0; step_index < n; ++step_index) {
    size_t best = n;
    double best_cost = 0.0;
    if (step_index == 0 && pinned >= 0) {
      best = static_cast<size_t>(pinned);
      best_cost = literal_cost(best);
    } else {
      for (size_t p = 0; p < n; ++p) {
        if (used[p]) continue;
        double cost = literal_cost(p);
        if (best == n || cost < best_cost) {
          best = p;
          best_cost = cost;
        }
      }
    }
    used[best] = 1;

    ExecutionPlan::Step step;
    step.p = best;
    step.literal_delta_offset = info[best].delta_offset;
    step.cost = best_cost;
    for (size_t a = 0; a < info[best].atoms.size(); ++a) {
      const RelationalAtom& atom = *info[best].atoms[a];
      ExecutionPlan::AtomProbe probe;
      probe.rel = source_rel(info[best], a);
      probe.signature = atom_signature(atom, bound);
      if (probe.rel != nullptr && probe.signature != 0 &&
          probe.rel->NumTuples() >= kMinTuplesForIndex) {
        bool built_now = false;
        probe.index = probe.rel->GetIndex(probe.signature, &built_now);
        if (built_now && stats != nullptr) {
          ++stats->indexes_built;
        }
      }
      for (const Term& t : atom.args) {
        if (t.is_variable()) bound[t.var()] = 1;
      }
      step.probes.push_back(probe);
    }
    plan.total_cost += best_cost;
    plan.steps.push_back(std::move(step));
  }
  if (stats != nullptr) {
    stats->last_plan_cost = plan.total_cost;
  }
  return plan;
}

std::string RulePlanner::ExplainPlan(const Database& db) const {
  std::string out = rule_.ToString() + "\n";
  ExecutionPlan plan = BuildPlan(db, nullptr, -1, nullptr);
  char buf[64];
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const ExecutionPlan::Step& step = plan.steps[i];
    const size_t body_index = positive_literals_[step.p];
    const LiteralPlan& lplan = literal_plans_[step.p];
    std::snprintf(buf, sizeof(buf), "%.3g", step.cost);
    out += "  " + std::to_string(i + 1) + ". " +
           rule_.body[body_index].ToString(rule_.var_names) + "  [est_cost=" +
           buf + "]\n";
    std::vector<const RelationalAtom*> atoms;
    rule_.body[body_index].metric.CollectRelationalAtoms(&atoms);
    for (size_t a = 0; a < atoms.size(); ++a) {
      const ExecutionPlan::AtomProbe& probe = step.probes[a];
      out += "       " + PredicateName(atoms[a]->predicate) + ": ";
      if (probe.index != nullptr) {
        out += "index(";
        for (size_t k = 0; k < probe.index->positions.size(); ++k) {
          if (k > 0) out += ",";
          out += std::to_string(probe.index->positions[k]);
        }
        out += ")";
      } else {
        out += "scan";
      }
      out += lplan.atoms[a].prunable ? ", envelope-pruned" : ", no-prune";
      switch (lplan.shape) {
        case LiteralShape::kBareAtom:
          out += ", bare";
          break;
        case LiteralShape::kUnaryChain:
          out += ", unary-chain";
          break;
        case LiteralShape::kGeneral:
          out += ", general";
          break;
      }
      out += "\n";
    }
  }
  std::snprintf(buf, sizeof(buf), "%.3g", plan.total_cost);
  out += "  total est_cost=" + std::string(buf) + "\n";
  return out;
}

}  // namespace dmtl
