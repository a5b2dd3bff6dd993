#include "src/eval/rule_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <set>

#include "src/analysis/safety.h"
#include "src/common/execution_guard.h"
#include "src/eval/builtin_eval.h"

namespace dmtl {

namespace {

constexpr size_t kMinTuplesForIndex = 8;

// Candidate tuples between guard checks inside join enumeration. Cheap
// enough that one huge join observes a deadline within milliseconds, rare
// enough to be invisible in profiles (the check is an atomic load + clock
// read once per 4096 candidates).
constexpr uint64_t kGuardStrideMask = 4095;

// Enumerates the groundings of the relational atoms of one positive
// literal, extending `row.binding`. Extents are intersected afterwards via
// EvalMetricExtent (which sees the same delta restriction). This is the
// planner-off path, preserved verbatim for the ablation baseline.
Status EnumerateAtoms(const std::vector<const RelationalAtom*>& atoms,
                      size_t atom_index, const Database& db,
                      const Database* delta, int literal_delta_offset,
                      const BindingRow& row,
                      const std::function<Status(const BindingRow&)>& next,
                      const ExecutionGuard* guard, uint64_t* guard_counter) {
  if (atom_index == atoms.size()) return next(row);
  const RelationalAtom& atom = *atoms[atom_index];
  const Database* source =
      static_cast<int>(atom_index) == literal_delta_offset && delta != nullptr
          ? delta
          : &db;
  const Relation* rel = source->Find(atom.predicate);
  if (rel == nullptr) return Status::Ok();  // no facts, no groundings

  auto try_tuple = [&](const Tuple& tuple) -> Status {
    if (guard != nullptr && (++*guard_counter & kGuardStrideMask) == 0) {
      DMTL_RETURN_IF_ERROR(guard->Check());
    }
    if (tuple.size() != atom.args.size()) return Status::Ok();
    BindingRow extended = row;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size() && ok; ++i) {
      ok = extended.binding.Unify(atom.args[i], tuple[i]);
    }
    if (!ok) return Status::Ok();
    return EnumerateAtoms(atoms, atom_index + 1, db, delta,
                          literal_delta_offset, extended, next, guard,
                          guard_counter);
  };

  // Probe the first-argument index when the leading argument is already
  // ground (the account-keyed joins of the contract).
  if (!atom.args.empty() && row.binding.IsResolved(atom.args[0])) {
    const std::vector<const Tuple*>* candidates =
        rel->FindByFirstArg(row.binding.Resolve(atom.args[0]));
    if (candidates == nullptr) return Status::Ok();
    for (const Tuple* tuple : *candidates) {
      DMTL_RETURN_IF_ERROR(try_tuple(*tuple));
    }
    return Status::Ok();
  }
  for (const Relation::ScanEntry& row_entry : rel->Rows()) {
    DMTL_RETURN_IF_ERROR(try_tuple(*row_entry.tuple));
  }
  return Status::Ok();
}

}  // namespace

Result<RuleEvaluator> RuleEvaluator::Create(const Rule& rule,
                                            bool enable_join_planning) {
  RuleEvaluator eval(rule);
  eval.planning_ = enable_join_planning;
  if (enable_join_planning) {
    eval.planner_stats_ = std::make_shared<PlannerStats>();
  }
  DMTL_RETURN_IF_ERROR(eval.Plan());
  return eval;
}

Status RuleEvaluator::Plan() {
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
      if (b.kind == BuiltinAtom::Kind::kCompare &&
          b.lhs.op() != Expr::Op::kVar) {
        // nothing extra; comparisons bind nothing
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
  if (planning_) {
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
  }
  return Status::Ok();
}

// Every ChildWindow step is a dilation, and dilation commutes with taking
// hulls, so expanding the row hull through the operator path yields a
// superset of (the hull of) the exact per-set child window.
Interval RuleEvaluator::ExpandPruneWindow(Interval window,
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

RuleEvaluator::ExecutionPlan RuleEvaluator::BuildPlan(
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
          stats->indexes_built.fetch_add(1, std::memory_order_relaxed);
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
    stats->last_plan_cost.store(plan.total_cost, std::memory_order_relaxed);
  }
  return plan;
}

Status RuleEvaluator::EvaluatePositivePlanned(
    const Database& db, const Database* delta, int delta_occurrence,
    std::vector<BindingRow>* rows, const ExecutionGuard* guard) const {
  PlannerStats* stats = planner_stats_.get();
  ExecutionPlan plan = BuildPlan(db, delta, delta_occurrence, stats);
  uint64_t probes = 0;
  uint64_t hits = 0;
  uint64_t pruned = 0;

  for (const ExecutionPlan::Step& step : plan.steps) {
    const BodyLiteral& lit = rule_.body[positive_literals_[step.p]];
    const LiteralPlan& lplan = literal_plans_[step.p];
    std::vector<const RelationalAtom*> atoms;
    lit.metric.CollectRelationalAtoms(&atoms);

    ExtentSource source;
    source.full = &db;
    source.delta = delta;
    source.delta_occurrence = step.literal_delta_offset;
    source.guard = guard;

    // Local enumeration state: direct recursion, no std::function on the
    // per-candidate path.
    struct Enumerator {
      const std::vector<const RelationalAtom*>& atoms;
      const ExecutionPlan::Step& step;
      const LiteralPlan& lplan;
      const BodyLiteral& lit;
      const ExtentSource& source;
      const BindingRow* row = nullptr;
      std::vector<std::optional<Interval>> windows;  // per-atom prune window
      std::vector<BindingRow>* out = nullptr;
      uint64_t* probes;
      uint64_t* hits;
      uint64_t* pruned;
      const ExecutionGuard* guard = nullptr;
      uint64_t guard_counter = 0;

      Status Emit(const Bindings& binding, const IntervalSet* leaf_set) {
        IntervalSet joined;
        switch (lplan.shape) {
          case LiteralShape::kBareAtom:
            // EvalMetricExtent on a ground bare atom is Find + Intersect;
            // the enumeration already holds the found set.
            joined = leaf_set->Intersect(row->extent);
            break;
          case LiteralShape::kUnaryChain: {
            const std::vector<PathStep>& path = lplan.atoms[0].path;
            // Replicates EvalRec exactly: child windows root-to-leaf, the
            // leaf lookup (already in hand), operators leaf-to-root.
            IntervalSet window = row->extent;
            for (const PathStep& s : path) {
              window = ChildWindow(s.op, s.range, window);
            }
            IntervalSet extent = leaf_set->Intersect(window);
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
              extent = ApplyUnaryOp(it->op, it->range, extent);
            }
            joined = row->extent.Intersect(extent);
            break;
          }
          case LiteralShape::kGeneral:
            joined = row->extent.Intersect(
                EvalMetricExtent(lit.metric, binding, source, row->extent));
            break;
        }
        if (joined.IsEmpty()) return Status::Ok();
        out->push_back(BindingRow{binding, std::move(joined)});
        return Status::Ok();
      }

      Status Enumerate(size_t a, const Bindings& binding,
                       const IntervalSet* leaf_set) {
        if (a == atoms.size()) return Emit(binding, leaf_set);
        const ExecutionPlan::AtomProbe& probe = step.probes[a];
        if (probe.rel == nullptr) return Status::Ok();
        const RelationalAtom& atom = *atoms[a];
        const std::optional<Interval>& w = windows[a];

        auto try_tuple = [&](const Tuple& tuple, const IntervalSet& set,
                             uint64_t skip_sig) -> Status {
          if (guard != nullptr &&
              (++guard_counter & kGuardStrideMask) == 0) {
            DMTL_RETURN_IF_ERROR(guard->Check());
          }
          if (tuple.size() != atom.args.size()) return Status::Ok();
          if (w.has_value() && !set.Hull().Overlaps(*w)) {
            ++*pruned;
            return Status::Ok();
          }
          Bindings extended = binding;
          for (size_t i = 0; i < atom.args.size(); ++i) {
            // Positions covered by the index key already matched.
            if (i < 64 && ((skip_sig >> i) & 1)) continue;
            if (!extended.Unify(atom.args[i], tuple[i])) return Status::Ok();
          }
          return Enumerate(a + 1, extended, &set);
        };

        if (probe.index != nullptr) {
          Tuple key;
          key.reserve(probe.index->positions.size());
          for (size_t pos : probe.index->positions) {
            key.push_back(binding.Resolve(atom.args[pos]));
          }
          ++*probes;
          const Relation::PostingList* list = probe.index->Lookup(key);
          if (list == nullptr) return Status::Ok();
          ++*hits;
          if (w.has_value() && list->envelope.has_value() &&
              !list->envelope->Overlaps(*w)) {
            *pruned += list->entries.size();
            return Status::Ok();
          }
          for (const Relation::IndexEntry& entry : list->entries) {
            // Per-entry hull prune from the contiguous posting array, before
            // the extent (a separate cache line) is touched.
            if (w.has_value() && !entry.hull.Overlaps(*w)) {
              ++*pruned;
              continue;
            }
            DMTL_RETURN_IF_ERROR(
                try_tuple(*entry.tuple, *entry.extent, probe.signature));
          }
          return Status::Ok();
        }
        for (const Relation::ScanEntry& row : probe.rel->Rows()) {
          DMTL_RETURN_IF_ERROR(try_tuple(*row.tuple, *row.extent, 0));
        }
        return Status::Ok();
      }
    };

    std::vector<BindingRow> next_rows;
    Enumerator enumerator{atoms, step,       lplan,   lit,   source, nullptr,
                          {},    &next_rows, &probes, &hits, &pruned};
    enumerator.guard = guard;
    enumerator.windows.resize(atoms.size());
    for (const BindingRow& row : *rows) {
      // Per-row temporal prune windows (row extents are never empty). A
      // fully infinite hull overlaps everything; skip the bookkeeping.
      Interval row_hull = row.extent.Hull();
      if (row_hull.lo_infinite() && row_hull.hi_infinite()) {
        std::fill(enumerator.windows.begin(), enumerator.windows.end(),
                  std::nullopt);
      } else {
        for (size_t a = 0; a < atoms.size(); ++a) {
          enumerator.windows[a] =
              lplan.atoms[a].prunable
                  ? std::optional<Interval>(
                        ExpandPruneWindow(row_hull, lplan.atoms[a].path))
                  : std::nullopt;
        }
      }
      enumerator.row = &row;
      DMTL_RETURN_IF_ERROR(
          enumerator.Enumerate(0, row.binding, nullptr));
    }
    rows->swap(next_rows);
    if (rows->empty()) break;
  }

  if (stats != nullptr) {
    stats->index_probes.fetch_add(probes, std::memory_order_relaxed);
    stats->index_probe_hits.fetch_add(hits, std::memory_order_relaxed);
    stats->envelope_pruned.fetch_add(pruned, std::memory_order_relaxed);
  }
  return Status::Ok();
}

std::string RuleEvaluator::ExplainPlan(const Database& db) const {
  std::string out = rule_.ToString() + "\n";
  if (!planning_) {
    out += "  (join planning disabled)\n";
    return out;
  }
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

Status RuleEvaluator::EvaluateRows(const Database& db, const Database* delta,
                                   int delta_occurrence,
                                   std::vector<BindingRow>* out,
                                   const ExecutionGuard* guard) const {
  BindingRow seed{Bindings(rule_.num_vars()), IntervalSet(Interval::All())};
  std::vector<BindingRow> rows;
  rows.push_back(std::move(seed));

  // Stage 1: positive literals.
  if (planning_) {
    DMTL_RETURN_IF_ERROR(
        EvaluatePositivePlanned(db, delta, delta_occurrence, &rows, guard));
    if (rows.empty()) {
      out->clear();
      return Status::Ok();
    }
  } else {
    // Planner-off baseline: body order refined only by total extent volume
    // (cheapest literal first), full-enumeration joins.
    std::vector<size_t> order(positive_literals_.size());
    for (size_t p = 0; p < order.size(); ++p) order[p] = p;
    {
      std::vector<size_t> cost(positive_literals_.size(), 0);
      for (size_t p = 0; p < positive_literals_.size(); ++p) {
        std::vector<const RelationalAtom*> atoms;
        rule_.body[positive_literals_[p]].metric.CollectRelationalAtoms(
            &atoms);
        for (size_t a = 0; a < atoms.size(); ++a) {
          int global = occurrence_start_[p] + static_cast<int>(a);
          const Database* source =
              global == delta_occurrence && delta != nullptr ? delta : &db;
          const Relation* rel = source->Find(atoms[a]->predicate);
          cost[p] += rel == nullptr ? 0 : rel->approx_intervals();
        }
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) { return cost[a] < cost[b]; });
    }

    for (size_t p : order) {
      const BodyLiteral& lit = rule_.body[positive_literals_[p]];
      std::vector<const RelationalAtom*> atoms;
      lit.metric.CollectRelationalAtoms(&atoms);
      int literal_delta_offset = -1;
      if (delta_occurrence >= 0) {
        int rel = delta_occurrence - occurrence_start_[p];
        if (rel >= 0 && rel < static_cast<int>(atoms.size())) {
          literal_delta_offset = rel;
        }
      }
      ExtentSource source;
      source.full = &db;
      source.delta = delta;
      source.delta_occurrence = literal_delta_offset;
      source.guard = guard;
      std::vector<BindingRow> next_rows;
      uint64_t guard_counter = 0;
      for (const BindingRow& row : rows) {
        DMTL_RETURN_IF_ERROR(EnumerateAtoms(
            atoms, 0, db, delta, literal_delta_offset, row,
            [&](const BindingRow& grounded) -> Status {
              IntervalSet extent = EvalMetricExtent(
                  lit.metric, grounded.binding, source, grounded.extent);
              IntervalSet joined = grounded.extent.Intersect(extent);
              if (joined.IsEmpty()) return Status::Ok();
              next_rows.push_back({grounded.binding, std::move(joined)});
              return Status::Ok();
            },
            guard, &guard_counter));
      }
      rows.swap(next_rows);
      if (rows.empty()) {
        out->clear();
        return Status::Ok();
      }
    }
  }

  if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());

  // Stage 2: early builtins.
  for (size_t i : early_builtins_) {
    const BuiltinAtom& b = rule_.body[i].builtin;
    std::vector<BindingRow> next_rows;
    for (BindingRow& row : rows) {
      DMTL_ASSIGN_OR_RETURN(bool keep, ApplyBuiltin(b, &row.binding));
      if (keep) next_rows.push_back(std::move(row));
    }
    rows.swap(next_rows);
  }

  // Stage 3: negated literals.
  ExtentSource full_source;
  full_source.full = &db;
  full_source.guard = guard;
  for (size_t i : negated_literals_) {
    if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
    const BodyLiteral& lit = rule_.body[i];
    std::vector<BindingRow> next_rows;
    for (BindingRow& row : rows) {
      IntervalSet neg =
          EvalMetricExtent(lit.metric, row.binding, full_source, row.extent);
      IntervalSet remaining = row.extent.Subtract(neg);
      if (remaining.IsEmpty()) continue;
      next_rows.push_back({std::move(row.binding), std::move(remaining)});
    }
    rows.swap(next_rows);
  }

  // Stage 4: timestamp splits.
  uint64_t split_counter = 0;
  for (size_t i : timestamp_builtins_) {
    if (guard != nullptr) DMTL_RETURN_IF_ERROR(guard->Check());
    const BuiltinAtom& b = rule_.body[i].builtin;
    std::vector<BindingRow> next_rows;
    for (const BindingRow& row : rows) {
      std::vector<Rational> points;
      if (!row.extent.IsPunctualOnly(&points)) {
        return Status::EvalError(
            "timestamp() requires a punctual join extent; got " +
            row.extent.ToString() + " in rule: " + rule_.ToString());
      }
      for (const Rational& p : points) {
        if (guard != nullptr &&
            (++split_counter & kGuardStrideMask) == 0) {
          DMTL_RETURN_IF_ERROR(guard->Check());
        }
        BindingRow split = row;
        split.extent = IntervalSet(Interval::Point(p));
        Value v = p.is_integer() ? Value::Int(p.numerator())
                                 : Value::Double(p.ToDouble());
        if (!split.binding.Unify(Term::Variable(b.var), v)) continue;
        next_rows.push_back(std::move(split));
      }
    }
    rows.swap(next_rows);
  }

  // Stage 5: late builtins.
  for (size_t i : late_builtins_) {
    const BuiltinAtom& b = rule_.body[i].builtin;
    std::vector<BindingRow> next_rows;
    for (BindingRow& row : rows) {
      DMTL_ASSIGN_OR_RETURN(bool keep, ApplyBuiltin(b, &row.binding));
      if (keep) next_rows.push_back(std::move(row));
    }
    rows.swap(next_rows);
  }

  *out = std::move(rows);
  return Status::Ok();
}

Status RuleEvaluator::Evaluate(const Database& db, const Database* delta,
                               int delta_occurrence, const EmitFn& emit,
                               const ExecutionGuard* guard) const {
  if (rule_.head.aggregate.has_value()) {
    return Status::Internal(
        "aggregate rules must go through AggregateEvaluator");
  }
  std::vector<BindingRow> rows;
  DMTL_RETURN_IF_ERROR(
      EvaluateRows(db, delta, delta_occurrence, &rows, guard));
  for (const BindingRow& row : rows) {
    Tuple tuple;
    tuple.reserve(rule_.head.args.size());
    bool ok = true;
    for (const Term& term : rule_.head.args) {
      if (!row.binding.IsResolved(term)) {
        ok = false;
        break;
      }
      tuple.push_back(row.binding.Resolve(term));
    }
    if (!ok) {
      return Status::UnsafeRule("unbound head variable in rule: " +
                                rule_.ToString());
    }
    // Apply the head operator chain (outermost first): a head boxminus
    // holding throughout E forces the inner atom over the past-dilation of
    // E, and boxplus over the future-dilation.
    IntervalSet extent = row.extent;
    for (const HeadAtom::HeadOp& op : rule_.head.ops) {
      extent = op.op == MtlOp::kBoxMinus ? extent.DiamondPlus(op.range)
                                         : extent.DiamondMinus(op.range);
    }
    if (extent.IsEmpty()) continue;
    DMTL_RETURN_IF_ERROR(emit(tuple, extent));
  }
  return Status::Ok();
}

}  // namespace dmtl
