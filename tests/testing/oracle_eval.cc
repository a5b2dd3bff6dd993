#include "tests/testing/oracle_eval.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "src/analysis/safety.h"
#include "src/analysis/stratifier.h"
#include "src/eval/aggregate_eval.h"
#include "src/eval/bindings.h"
#include "src/eval/builtin_eval.h"

namespace dmtl {
namespace {

// A partial result: a variable binding plus the extent over which the body
// literals seen so far jointly hold.
struct Row {
  Bindings binding;
  IntervalSet extent;
};

bool Unify(const Term& term, const Value& v, Bindings* binding) {
  if (term.is_constant()) return term.value() == v;
  if (binding->IsBound(term.var())) return binding->Get(term.var()) == v;
  binding->Set(term.var(), v);
  return true;
}

void BuiltinVars(const BuiltinAtom& b, std::vector<int>* vars) {
  if (b.kind == BuiltinAtom::Kind::kAssign) {
    b.expr.CollectVars(vars);
  } else {
    b.lhs.CollectVars(vars);
    b.rhs.CollectVars(vars);
  }
}

// One rule's body, split into the stages of the row pipeline.
class OracleRule {
 public:
  explicit OracleRule(const Rule& rule) : rule_(rule) {
    // Timestamp variables, and assignment targets computed from them.
    std::set<int> ts;
    for (const BodyLiteral& lit : rule.body) {
      if (lit.kind == BodyLiteral::Kind::kBuiltin &&
          lit.builtin.kind == BuiltinAtom::Kind::kTimestamp) {
        ts.insert(lit.builtin.var);
      }
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const BodyLiteral& lit : rule.body) {
        if (lit.kind != BodyLiteral::Kind::kBuiltin ||
            lit.builtin.kind != BuiltinAtom::Kind::kAssign ||
            ts.count(lit.builtin.var)) {
          continue;
        }
        std::vector<int> vars;
        BuiltinVars(lit.builtin, &vars);
        if (std::any_of(vars.begin(), vars.end(),
                        [&](int v) { return ts.count(v) > 0; })) {
          ts.insert(lit.builtin.var);
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const BodyLiteral& lit = rule.body[i];
      if (lit.kind == BodyLiteral::Kind::kMetric) {
        if (lit.negated) {
          negated_.push_back(i);
        } else {
          positive_.push_back(i);
          occurrence_start_.push_back(static_cast<int>(occurrences_.size()));
          atoms_.emplace_back();
          lit.metric.CollectRelationalAtoms(&atoms_.back());
          occurrences_.insert(occurrences_.end(), atoms_.back().begin(),
                              atoms_.back().end());
        }
        continue;
      }
      if (lit.builtin.kind == BuiltinAtom::Kind::kTimestamp) {
        timestamps_.push_back(i);
        continue;
      }
      std::vector<int> vars;
      BuiltinVars(lit.builtin, &vars);
      if (lit.builtin.kind == BuiltinAtom::Kind::kAssign) {
        vars.push_back(lit.builtin.var);
      }
      bool late = std::any_of(vars.begin(), vars.end(),
                              [&](int v) { return ts.count(v) > 0; });
      (late ? late_ : early_).push_back(i);
    }
  }

  const Rule& rule() const { return rule_; }
  // The positive relational atoms, in occurrence order.
  const std::vector<const RelationalAtom*>& occurrences() const {
    return occurrences_;
  }

  // The rows of the body, with occurrence `delta_occurrence` (-1: none)
  // read from `delta`.
  Result<std::vector<Row>> Rows(const Database& db, const Database* delta,
                                int delta_occurrence) const {
    std::vector<Row> rows;
    rows.push_back(
        Row{Bindings(rule_.num_vars()), IntervalSet(Interval::All())});
    // Smallest literal first (by tuples over its atoms' sources), ties in
    // body order.
    std::vector<ExtentSource> sources(positive_.size());
    std::vector<size_t> order(positive_.size()), size(positive_.size(), 0);
    for (size_t p = 0; p < positive_.size(); ++p) {
      const std::vector<const RelationalAtom*>& atoms = atoms_[p];
      ExtentSource& source = sources[p];
      source.full = &db;
      source.delta = delta;
      const int offset = delta_occurrence - occurrence_start_[p];
      if (delta_occurrence >= 0 && offset >= 0 &&
          offset < static_cast<int>(atoms.size())) {
        source.delta_occurrence = offset;
      }
      for (size_t a = 0; a < atoms.size(); ++a) {
        const Database* from = static_cast<int>(a) == source.delta_occurrence
                                   ? delta
                                   : &db;
        const Relation* rel = from->Find(atoms[a]->predicate);
        size[p] += rel == nullptr ? 0 : rel->NumTuples();
      }
      order[p] = p;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t x, size_t y) { return size[x] < size[y]; });
    for (size_t p : order) {
      if (rows.empty()) break;
      const BodyLiteral& lit = rule_.body[positive_[p]];
      const ExtentSource& source = sources[p];
      std::vector<Row> next;
      for (const Row& row : rows) {
        Enumerate(atoms_[p], 0, source, row.binding, [&](const Bindings& b) {
          IntervalSet joined = row.extent.Intersect(
              EvalMetricExtent(lit.metric, b, source, row.extent));
          if (!joined.IsEmpty()) next.push_back(Row{b, std::move(joined)});
        });
      }
      rows = std::move(next);
    }
    DMTL_RETURN_IF_ERROR(ApplyBuiltins(early_, &rows));

    ExtentSource full;
    full.full = &db;
    for (size_t i : negated_) {
      std::vector<Row> next;
      for (Row& row : rows) {
        IntervalSet rest = row.extent.Subtract(EvalMetricExtent(
            rule_.body[i].metric, row.binding, full, row.extent));
        if (!rest.IsEmpty()) next.push_back(Row{row.binding, std::move(rest)});
      }
      rows = std::move(next);
    }

    for (size_t i : timestamps_) {
      const int var = rule_.body[i].builtin.var;
      std::vector<Row> next;
      for (const Row& row : rows) {
        std::vector<Rational> points;
        if (!row.extent.IsPunctualOnly(&points)) {
          return Status::EvalError("timestamp() over a non-punctual extent " +
                                   row.extent.ToString() + " in rule: " +
                                   rule_.ToString());
        }
        for (const Rational& t : points) {
          Row split{row.binding, IntervalSet(Interval::Point(t))};
          Value v = t.is_integer() ? Value::Int(t.numerator())
                                   : Value::Double(t.ToDouble());
          if (Unify(Term::Variable(var), v, &split.binding)) {
            next.push_back(std::move(split));
          }
        }
      }
      rows = std::move(next);
    }
    DMTL_RETURN_IF_ERROR(ApplyBuiltins(late_, &rows));
    return rows;
  }

  // Runs the rule and emits its head facts (its aggregates, for an
  // aggregate head).
  Status Derive(const Database& db, const Database* delta,
                int delta_occurrence, const EmitFn& emit) const {
    DMTL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          Rows(db, delta, delta_occurrence));
    if (rule_.head.aggregate.has_value()) {
      const std::vector<Term> terms = AggregateEvaluator::WitnessTerms(rule_);
      std::vector<WitnessRow> witnesses;
      for (const Row& row : rows) {
        DMTL_ASSIGN_OR_RETURN(Tuple values, Project(terms, row.binding));
        witnesses.emplace_back(std::move(values), row.extent);
      }
      DMTL_ASSIGN_OR_RETURN(AggregateEvaluator agg,
                            AggregateEvaluator::Create(rule_));
      return agg.Evaluate(witnesses, emit);
    }
    for (const Row& row : rows) {
      DMTL_ASSIGN_OR_RETURN(Tuple tuple,
                            Project(rule_.head.args, row.binding));
      // A head boxminus holding throughout E forces the inner atom over
      // the past-dilation of E, and boxplus over the future-dilation.
      IntervalSet extent = row.extent;
      for (const HeadAtom::HeadOp& op : rule_.head.ops) {
        extent = op.op == MtlOp::kBoxMinus ? extent.DiamondPlus(op.range)
                                           : extent.DiamondMinus(op.range);
      }
      if (!extent.IsEmpty()) DMTL_RETURN_IF_ERROR(emit(tuple, extent));
    }
    return Status::Ok();
  }

 private:
  // Grounds the relational atoms of one literal left to right, calling
  // `next` with each complete binding.
  template <typename Fn>
  static void Enumerate(const std::vector<const RelationalAtom*>& atoms,
                        size_t a, const ExtentSource& source,
                        const Bindings& binding, const Fn& next) {
    if (a == atoms.size()) {
      next(binding);
      return;
    }
    const RelationalAtom& atom = *atoms[a];
    const Database* db = static_cast<int>(a) == source.delta_occurrence
                             ? source.delta
                             : source.full;
    const Relation* rel = db == nullptr ? nullptr : db->Find(atom.predicate);
    if (rel == nullptr) return;
    auto try_tuple = [&](const Tuple& tuple) {
      if (tuple.size() != atom.args.size()) return;
      Bindings extended = binding;
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (!Unify(atom.args[i], tuple[i], &extended)) return;
      }
      Enumerate(atoms, a + 1, source, extended, next);
    };
    // A bound first argument looks its tuples up directly (the storage
    // layer's own first-argument map); anything else scans.
    if (!atom.args.empty() && binding.IsResolved(atom.args[0])) {
      const std::vector<const Tuple*>* tuples =
          rel->FindByFirstArg(binding.Resolve(atom.args[0]));
      if (tuples == nullptr) return;
      for (const Tuple* tuple : *tuples) try_tuple(*tuple);
      return;
    }
    for (const Relation::ScanEntry& entry : rel->Rows()) {
      try_tuple(*entry.tuple);
    }
  }

  // Applies `builtins` to every row, each row in whatever order its
  // bindings allow: an assignment waits until its right-hand side is
  // bound, a comparison until both sides are.
  Status ApplyBuiltins(const std::vector<size_t>& builtins,
                       std::vector<Row>* rows) const {
    if (builtins.empty()) return Status::Ok();
    std::vector<Row> next;
    for (Row& row : *rows) {
      std::vector<size_t> pending = builtins;
      bool keep = true;
      while (keep && !pending.empty()) {
        auto ready = std::find_if(pending.begin(), pending.end(),
                                  [&](size_t i) {
                                    std::vector<int> vars;
                                    BuiltinVars(rule_.body[i].builtin, &vars);
                                    return std::all_of(
                                        vars.begin(), vars.end(), [&](int v) {
                                          return row.binding.IsBound(v);
                                        });
                                  });
        if (ready == pending.end()) {
          return Status::UnsafeRule("unresolvable builtins in rule: " +
                                    rule_.ToString());
        }
        DMTL_ASSIGN_OR_RETURN(
            keep, ApplyBuiltin(rule_.body[*ready].builtin, &row.binding));
        pending.erase(ready);
      }
      if (keep) next.push_back(std::move(row));
    }
    *rows = std::move(next);
    return Status::Ok();
  }

  Result<Tuple> Project(const std::vector<Term>& terms,
                        const Bindings& binding) const {
    Tuple tuple;
    for (const Term& t : terms) {
      if (!binding.IsResolved(t)) {
        return Status::UnsafeRule("unbound head variable in rule: " +
                                  rule_.ToString());
      }
      tuple.push_back(binding.Resolve(t));
    }
    return tuple;
  }

  const Rule& rule_;
  std::vector<size_t> positive_, negated_, early_, timestamps_, late_;
  // Per positive literal (parallel to positive_): its relational atoms,
  // and the occurrence index of the first of them.
  std::vector<std::vector<const RelationalAtom*>> atoms_;
  std::vector<int> occurrence_start_;
  std::vector<const RelationalAtom*> occurrences_;
};

bool HasCoverage(const Database& db, PredicateId pred) {
  const Relation* rel = db.Find(pred);
  return rel != nullptr && !rel->IsEmpty();
}

}  // namespace

Status OracleDerive(const Rule& rule, const Database& db,
                    const EmitFn& emit) {
  DMTL_RETURN_IF_ERROR(CheckSafety(rule));
  return OracleRule(rule).Derive(db, nullptr, -1, emit);
}

Status OracleMaterialize(const Program& program, Database* db,
                         const EngineOptions& options,
                         std::vector<DerivationRecord>* provenance,
                         OracleLoop loop) {
  DMTL_RETURN_IF_ERROR(program.CheckArities());
  DMTL_RETURN_IF_ERROR(CheckSafety(program));
  DMTL_ASSIGN_OR_RETURN(Stratification strat, Stratify(program));
  const Interval window =
      Interval::Make(options.min_time.has_value()
                         ? Bound::Closed(*options.min_time)
                         : Bound::Infinite(),
                     options.max_time.has_value()
                         ? Bound::Closed(*options.max_time)
                         : Bound::Infinite())
          .value_or(Interval::All());
  std::vector<OracleRule> rules;
  for (const Rule& rule : program.rules()) rules.emplace_back(rule);

  for (int s = 0; s < strat.num_strata; ++s) {
    Database delta;
    for (size_t round = 0;; ++round) {
      if (round > 0 && delta.NumIntervals() == 0) break;
      if (round > options.max_rounds) {
        return Status::ResourceExhausted("oracle: stratum " +
                                         std::to_string(s) +
                                         " exceeded max_rounds");
      }
      Database fresh_delta;
      auto run = [&](size_t id, const Database* d, int occurrence) {
        const PredicateId head = rules[id].rule().head.predicate;
        return rules[id].Derive(
            *db, d, occurrence,
            [&](const Tuple& tuple, const IntervalSet& extent) -> Status {
              IntervalSet clamped = extent.Intersect(window);
              if (clamped.IsEmpty()) return Status::Ok();
              IntervalSet fresh = db->InsertSet(head, tuple, clamped);
              if (fresh.IsEmpty()) return Status::Ok();
              fresh_delta.InsertSet(head, tuple, fresh);
              if (provenance != nullptr) {
                for (const Interval& piece : fresh) {
                  provenance->push_back({head, tuple, piece, id, round});
                }
              }
              return Status::Ok();
            });
      };
      for (size_t id : strat.rule_strata[s]) {
        const Rule& rule = rules[id].rule();
        // Aggregates read only lower strata: one evaluation suffices.
        if (rule.head.aggregate.has_value()) {
          if (round == 0) DMTL_RETURN_IF_ERROR(run(id, nullptr, -1));
          continue;
        }
        if (round == 0 || loop == OracleLoop::kNaive) {
          DMTL_RETURN_IF_ERROR(run(id, nullptr, -1));
          continue;
        }
        const std::vector<const RelationalAtom*>& occurrences =
            rules[id].occurrences();
        for (size_t occ = 0; occ < occurrences.size(); ++occ) {
          if (HasCoverage(delta, occurrences[occ]->predicate)) {
            DMTL_RETURN_IF_ERROR(run(id, &delta, static_cast<int>(occ)));
          }
        }
      }
      delta = std::move(fresh_delta);
    }
  }
  return Status::Ok();
}

}  // namespace dmtl
