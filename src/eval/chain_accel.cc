#include "src/eval/chain_accel.h"

#include <set>

#include "src/eval/operators.h"

namespace dmtl {

std::optional<ChainAccelerator::ChainInfo> ChainAccelerator::Detect(
    const Rule& rule, const std::map<PredicateId, int>& predicate_stratum) {
  if (!rule.head.ops.empty() || rule.head.aggregate.has_value()) {
    return std::nullopt;
  }
  auto head_it = predicate_stratum.find(rule.head.predicate);
  if (head_it == predicate_stratum.end()) return std::nullopt;
  int head_stratum = head_it->second;

  ChainInfo info;
  info.predicate = rule.head.predicate;
  bool found_self = false;

  // Variables of the head; guards must not introduce bound variables beyond
  // these (anonymous variables in *negated* guards stay existential).
  std::set<int> head_vars;
  for (const Term& t : rule.head.args) {
    if (t.is_variable()) head_vars.insert(t.var());
  }

  for (size_t i = 0; i < rule.body.size(); ++i) {
    const BodyLiteral& lit = rule.body[i];
    if (lit.kind == BodyLiteral::Kind::kBuiltin) return std::nullopt;
    const MetricAtom& m = lit.metric;
    if (!lit.negated && m.kind() == MetricAtom::Kind::kUnary &&
        m.left().kind() == MetricAtom::Kind::kRelational &&
        m.left().atom().predicate == rule.head.predicate &&
        m.left().atom().args == rule.head.args && m.range().IsPunctual() &&
        !m.range().lo().value.is_zero()) {
      if (found_self) return std::nullopt;  // two self atoms: not a chain
      switch (m.op()) {
        case MtlOp::kBoxMinus:
        case MtlOp::kDiamondMinus:
          info.step = m.range().lo().value;
          break;
        case MtlOp::kBoxPlus:
        case MtlOp::kDiamondPlus:
          info.step = -m.range().lo().value;
          break;
        default:
          return std::nullopt;
      }
      info.self_literal = i;
      found_self = true;
      continue;
    }
    // Guard literal: every predicate inside must be strictly below the head
    // stratum (so its extent is final when the chain runs).
    std::vector<const RelationalAtom*> atoms;
    m.CollectRelationalAtoms(&atoms);
    if (atoms.empty() && m.kind() != MetricAtom::Kind::kTruth) {
      return std::nullopt;
    }
    for (const RelationalAtom* atom : atoms) {
      auto it = predicate_stratum.find(atom->predicate);
      int s = it == predicate_stratum.end() ? 0 : it->second;
      if (s >= head_stratum) return std::nullopt;
      for (const Term& t : atom->args) {
        if (t.is_variable() && !head_vars.count(t.var())) {
          // Free variables are only tolerated existentially in negation.
          if (!lit.negated) return std::nullopt;
        }
      }
    }
    if (lit.negated) {
      info.negated_guards.push_back(i);
    } else {
      info.positive_guards.push_back(i);
    }
  }
  if (!found_self) return std::nullopt;
  return info;
}

Status ChainAccelerator::Extend(const Rule& rule, const ChainInfo& info,
                                const Database& db, const Database& delta,
                                const Interval& window, AllowedCache* cache,
                                const EmitPointFn& emit) {
  const Relation* delta_rel = delta.Find(info.predicate);
  if (delta_rel == nullptr) return Status::Ok();

  ExtentSource source;
  source.full = &db;

  for (const Relation::ScanEntry& row : delta_rel->Rows()) {
    const Tuple& tuple = *row.tuple;
    const IntervalSet& seed_set = *row.extent;
    // Bind head variables from the tuple.
    Bindings binding(rule.num_vars());
    bool ok = true;
    for (size_t i = 0; i < rule.head.args.size() && ok; ++i) {
      ok = binding.Unify(rule.head.args[i], tuple[i]);
    }
    if (!ok) continue;

    // Allowed set: guard extents minus blocker extents, clamped to the
    // walk window. Guards are fixed for the stratum, so cache per tuple.
    const IntervalSet* allowed_ptr = nullptr;
    if (cache != nullptr) {
      auto it = cache->find(tuple);
      if (it != cache->end()) allowed_ptr = &it->second;
    }
    IntervalSet computed;
    if (allowed_ptr == nullptr) {
      computed = IntervalSet{window};
      for (size_t i : info.positive_guards) {
        computed = computed.Intersect(EvalMetricExtent(
            rule.body[i].metric, binding, source, computed));
        if (computed.IsEmpty()) break;
      }
      for (size_t i : info.negated_guards) {
        if (computed.IsEmpty()) break;
        computed = computed.Subtract(EvalMetricExtent(
            rule.body[i].metric, binding, source, computed));
      }
      if (cache != nullptr) {
        allowed_ptr =
            &cache->emplace(tuple, std::move(computed)).first->second;
      } else {
        allowed_ptr = &computed;
      }
    }
    const IntervalSet& allowed = *allowed_ptr;
    if (allowed.IsEmpty()) continue;

    for (const Interval& seed : seed_set) {
      if (seed.IsPunctual()) {
        // Grid walk: march the step-c progression while it stays allowed.
        Rational t = seed.lo().value + info.step;
        while (allowed.Contains(t)) {
          DMTL_ASSIGN_OR_RETURN(bool fresh, emit(tuple, Interval::Point(t)));
          if (!fresh) break;  // rejoined an already-walked chain
          t = t + info.step;
        }
      } else {
        // Interval seed: iterate shift-and-clip; components coalesce, so
        // the working set stays small and each pass advances by |step|.
        IntervalSet covered{seed};
        IntervalSet frontier{seed};
        while (!frontier.IsEmpty()) {
          IntervalSet shifted = frontier.Shift(info.step)
                                    .Intersect(allowed)
                                    .Subtract(covered);
          if (shifted.IsEmpty()) break;
          for (const Interval& iv : shifted) {
            DMTL_RETURN_IF_ERROR(emit(tuple, iv).status());
          }
          covered.UnionWith(shifted);
          frontier = std::move(shifted);
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace dmtl
