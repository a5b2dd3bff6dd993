#ifndef DMTL_EVAL_AGGREGATE_EVAL_H_
#define DMTL_EVAL_AGGREGATE_EVAL_H_

#include <utility>
#include <vector>

#include "src/ast/rule.h"
#include "src/eval/operators.h"

namespace dmtl {

// One body binding of an aggregate rule: the values of WitnessTerms under
// the binding, and the extent over which the body holds for it.
using WitnessRow = std::pair<Tuple, IntervalSet>;

// Aggregates the body bindings of a rule with an aggregated head argument,
// e.g.
//
//   event(msum(S)) :- eventContrib(A, S) .
//
// The rule VM runs the body like any other rule's, but emits one witness
// row per body binding in place of a head fact (see RuleCompiler); this
// class groups those rows.
//
// Stratified temporal aggregation: witnesses are the distinct body
// bindings; groups are the non-aggregated head arguments; the aggregate is
// computed *per time point* (witnesses only contribute where their body
// extent holds). The timeline is partitioned into atomic segments at every
// witness-extent endpoint; each segment gets the aggregate of the witnesses
// covering it, and adjacent segments with equal values re-coalesce on
// insertion.
//
// Aggregate rules live in their own stratum (all body dependencies are
// strictly lower), so a single evaluation per materialization suffices.
class AggregateEvaluator {
 public:
  static Result<AggregateEvaluator> Create(const Rule& rule);

  // What a witness row carries, in order: the head arguments (the
  // aggregated term in its head slot), then every other variable the body
  // binds. Two bindings that differ anywhere stay two witnesses, so two
  // accounts contributing the same value both count.
  static std::vector<Term> WitnessTerms(const Rule& rule);

  // Groups `witnesses` and emits each group's aggregate per segment, with
  // the head operators applied.
  Status Evaluate(const std::vector<WitnessRow>& witnesses,
                  const EmitFn& emit) const;

 private:
  explicit AggregateEvaluator(HeadAtom head) : head_(std::move(head)) {}

  HeadAtom head_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_AGGREGATE_EVAL_H_
