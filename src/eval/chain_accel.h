#ifndef DMTL_EVAL_CHAIN_ACCEL_H_
#define DMTL_EVAL_CHAIN_ACCEL_H_

#include <map>
#include <optional>

#include "src/ast/rule.h"
#include "src/temporal/interval.h"

namespace dmtl {

// Accelerates the temporal self-propagation pattern that dominates the
// ETH-PERP program (rules 2, 7, 13, 21, 24, 32, 35, 39):
//
//   P(x) :- boxminus[c,c] P(x), not B1(x'), ..., G1(x''), ... .
//
// where the head equals the shifted body atom, c > 0, and every guard /
// blocker predicate lives in a strictly lower stratum (hence is fully
// materialized). Instead of one fixpoint round per tick, the closure of
// each seed tuple is emitted in a single pass (RuleVm::ExtendChain): the
// guard-allowed time set is computed once per tuple and the step-c
// progression is walked directly.
//
// This is an optimization only - it derives exactly the facts the naive
// fixpoint would (the test oracle, which walks chains tick by tick, checks
// the materializations are equal).
class ChainAccelerator {
 public:
  struct ChainInfo {
    PredicateId predicate = 0;
    Rational step;            // signed: +c for past operators, -c for future
    size_t self_literal = 0;  // index into rule.body
    std::vector<size_t> positive_guards;
    std::vector<size_t> negated_guards;
  };

  // Returns the chain description when the rule matches the accelerable
  // pattern under the given predicate->stratum map, nullopt otherwise.
  static std::optional<ChainInfo> Detect(
      const Rule& rule, const std::map<PredicateId, int>& predicate_stratum);
};

}  // namespace dmtl

#endif  // DMTL_EVAL_CHAIN_ACCEL_H_
