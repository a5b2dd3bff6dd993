#ifndef DMTL_EVAL_OPERATORS_H_
#define DMTL_EVAL_OPERATORS_H_

#include <functional>
#include <vector>

#include "src/ast/atom.h"
#include "src/common/status.h"
#include "src/eval/bindings.h"
#include "src/storage/database.h"

namespace dmtl {

class ExecutionGuard;

// One operator step on the root-to-atom path of a relational atom inside a
// literal's metric tree: the join planner dilates prune windows along it,
// and unary-chain literals are evaluated step by step along it.
struct OpPathStep {
  MtlOp op = MtlOp::kDiamondMinus;
  Interval range = Interval::Point(Rational(0));
};

// Where relational extents come from during metric-atom evaluation. The
// semi-naive engine substitutes the delta relation for exactly one
// relational-atom occurrence per rule re-evaluation; `delta_occurrence`
// identifies it by pre-order position within the literal's atom tree
// (-1: none).
struct ExtentSource {
  const Database* full = nullptr;
  const Database* delta = nullptr;
  int delta_occurrence = -1;
  // Optional execution guard polled inside unbounded existential scans
  // (every few hundred tuples). On a trip the scan truncates its union and
  // returns early; this is sound only because the guard latches and the
  // engine's round-end check rolls the whole round back, so a truncated
  // extent is never observable in results.
  const ExecutionGuard* guard = nullptr;
};

// Receives one derived (tuple, extent) pair from rule evaluation.
using EmitFn =
    std::function<Status(const Tuple& tuple, const IntervalSet& extent)>;

// Applies a unary MTL operator transform to an extent set.
IntervalSet ApplyUnaryOp(MtlOp op, const Interval& rho,
                         const IntervalSet& extent);

// A superset of the time points a child atom can contribute from, given
// that only results within `result_window` matter for the parent operator.
// Used to keep evaluation proportional to the row extent instead of the
// stored extent (per-tick chain extents span whole sessions).
IntervalSet ChildWindow(MtlOp op, const Interval& rho,
                        const IntervalSet& result_window);

// Computes the set of time points at which the (fully ground under
// `binding`) metric atom holds, restricted to `window` (the result is exact
// within the window; callers intersect with their row extent anyway).
// Relational atoms with *unbound* variables are treated existentially: the
// union over all matching tuples in the source relation (used for negated
// literals like `not order(A, _)`).
IntervalSet EvalMetricExtent(const MetricAtom& atom, const Bindings& binding,
                             const ExtentSource& source,
                             const IntervalSet& window);

}  // namespace dmtl

#endif  // DMTL_EVAL_OPERATORS_H_
