#ifndef DMTL_EVAL_AGGREGATE_EVAL_H_
#define DMTL_EVAL_AGGREGATE_EVAL_H_

#include "src/eval/rule_eval.h"

namespace dmtl {

// Evaluates rules with an aggregated head argument, e.g.
//
//   event(msum(S)) :- eventContrib(A, S) .
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
  static Result<AggregateEvaluator> Create(const Rule& rule,
                                           bool enable_join_planning = true);

  const Rule& rule() const { return body_eval_.rule(); }

  // Planner counters of the body evaluator (null when planning is off).
  const PlannerStats* planner_stats() const {
    return body_eval_.planner_stats();
  }

  Status Evaluate(const Database& db,
                  const RuleEvaluator::EmitFn& emit) const;

 private:
  explicit AggregateEvaluator(RuleEvaluator body_eval)
      : body_eval_(std::move(body_eval)) {}

  RuleEvaluator body_eval_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_AGGREGATE_EVAL_H_
