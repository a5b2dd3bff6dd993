#include "src/eval/operators.h"

#include "src/common/execution_guard.h"

namespace dmtl {

namespace {

// Extent of one relational atom under a (possibly partial) binding within
// `window`: exact lookup when fully ground, existential union over matching
// tuples otherwise.
IntervalSet RelationalExtent(const RelationalAtom& atom,
                             const Bindings& binding, const Database* db,
                             const IntervalSet& window,
                             const ExecutionGuard* guard) {
  if (db == nullptr) return IntervalSet();
  const Relation* rel = db->Find(atom.predicate);
  if (rel == nullptr) return IntervalSet();
  // Everything below intersects with `window`; an empty window cannot
  // contribute anything.
  if (window.IsEmpty()) return IntervalSet();

  bool ground = true;
  for (const Term& t : atom.args) {
    if (!binding.IsResolved(t)) {
      ground = false;
      break;
    }
  }
  if (ground) {
    Tuple tuple;
    tuple.reserve(atom.args.size());
    for (const Term& t : atom.args) tuple.push_back(binding.Resolve(t));
    const IntervalSet* set = rel->Find(tuple);
    return set == nullptr ? IntervalSet() : set->Intersect(window);
  }
  // Existential: union over all tuples agreeing on the resolved positions.
  // The hull precheck skips tuples whose whole stored extent lies outside
  // the window's hull - their contribution to the union is empty anyway.
  IntervalSet out;
  Interval window_hull = window.Hull();
  auto consider = [&](const Tuple& tuple, const IntervalSet& set) {
    if (tuple.size() != atom.args.size()) return;
    if (!set.Hull().Overlaps(window_hull)) return;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (binding.IsResolved(atom.args[i]) &&
          binding.Resolve(atom.args[i]) != tuple[i]) {
        return;
      }
    }
    out.UnionWith(set.Intersect(window));
  };
  // `not order(A, _)` with A bound probes the first-argument index.
  uint64_t polled = 0;
  if (!atom.args.empty() && binding.IsResolved(atom.args[0])) {
    const std::vector<const Tuple*>* candidates =
        rel->FindByFirstArg(binding.Resolve(atom.args[0]));
    if (candidates == nullptr) return out;
    for (const Tuple* tuple : *candidates) {
      if (guard != nullptr && (++polled & 1023) == 0 && guard->Tripped()) {
        return out;  // truncated; the round-end check discards this round
      }
      const IntervalSet* set = rel->Find(*tuple);
      if (set != nullptr) consider(*tuple, *set);
    }
    return out;
  }
  for (const Relation::ScanEntry& row : rel->Rows()) {
    if (guard != nullptr && (++polled & 1023) == 0 && guard->Tripped()) {
      return out;  // truncated; the round-end check discards this round
    }
    consider(*row.tuple, *row.extent);
  }
  return out;
}

IntervalSet EvalRec(const MetricAtom& atom, const Bindings& binding,
                    const ExtentSource& source, const IntervalSet& window,
                    int* occurrence) {
  switch (atom.kind()) {
    case MetricAtom::Kind::kTruth:
      return window;
    case MetricAtom::Kind::kFalsity:
      return IntervalSet();
    case MetricAtom::Kind::kRelational: {
      int index = (*occurrence)++;
      const Database* db = index == source.delta_occurrence ? source.delta
                                                            : source.full;
      return RelationalExtent(atom.atom(), binding, db, window, source.guard);
    }
    case MetricAtom::Kind::kUnary: {
      IntervalSet child_window = ChildWindow(atom.op(), atom.range(), window);
      IntervalSet child =
          EvalRec(atom.left(), binding, source, child_window, occurrence);
      return ApplyUnaryOp(atom.op(), atom.range(), child);
    }
    case MetricAtom::Kind::kBinary: {
      IntervalSet child_window = ChildWindow(atom.op(), atom.range(), window);
      IntervalSet lhs =
          EvalRec(atom.left(), binding, source, child_window, occurrence);
      IntervalSet rhs =
          EvalRec(atom.right(), binding, source, child_window, occurrence);
      IntervalSet result = atom.op() == MtlOp::kSince
                               ? lhs.Since(rhs, atom.range())
                               : lhs.Until(rhs, atom.range());
      return result.Intersect(window);
    }
  }
  return IntervalSet();
}

}  // namespace

IntervalSet ApplyUnaryOp(MtlOp op, const Interval& rho,
                         const IntervalSet& extent) {
  switch (op) {
    case MtlOp::kDiamondMinus:
      return extent.DiamondMinus(rho);
    case MtlOp::kBoxMinus:
      return extent.BoxMinus(rho);
    case MtlOp::kDiamondPlus:
      return extent.DiamondPlus(rho);
    case MtlOp::kBoxPlus:
      return extent.BoxPlus(rho);
    case MtlOp::kSince:
    case MtlOp::kUntil:
      break;
  }
  return IntervalSet();
}

IntervalSet ChildWindow(MtlOp op, const Interval& rho,
                        const IntervalSet& result_window) {
  switch (op) {
    case MtlOp::kDiamondMinus:
    case MtlOp::kBoxMinus:
      // Results at t draw on child time points in t - rho: dilate the
      // window into the past.
      return result_window.DiamondPlus(rho);
    case MtlOp::kDiamondPlus:
    case MtlOp::kBoxPlus:
      return result_window.DiamondMinus(rho);
    case MtlOp::kSince: {
      // Witnesses lie within rho of the result and the continuity argument
      // spans the gap: anything in [0, rho.hi] back.
      auto span = Interval::Make(Bound::Closed(Rational(0)), rho.hi());
      if (!span.has_value()) return result_window;
      return result_window.DiamondPlus(*span);
    }
    case MtlOp::kUntil: {
      auto span = Interval::Make(Bound::Closed(Rational(0)), rho.hi());
      if (!span.has_value()) return result_window;
      return result_window.DiamondMinus(*span);
    }
  }
  return result_window;
}

IntervalSet EvalMetricExtent(const MetricAtom& atom, const Bindings& binding,
                             const ExtentSource& source,
                             const IntervalSet& window) {
  int occurrence = 0;
  return EvalRec(atom, binding, source, window, &occurrence);
}

}  // namespace dmtl
