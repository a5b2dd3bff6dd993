#ifndef DMTL_EVAL_RULE_COMPILE_H_
#define DMTL_EVAL_RULE_COMPILE_H_

#include "src/eval/bytecode.h"
#include "src/eval/chain_accel.h"
#include "src/eval/planner.h"

namespace dmtl {

// Lowers a planned rule into a RuleProgram (and a chain-accelerated rule
// into a ChainProgram). Compilation is a pure reshaping of what the
// planner already computed: the literal order comes from
// RulePlanner::BuildPlan against the current relation statistics, shapes
// and operator paths from its literal plans, and the stage order (builtins,
// negation, timestamp splits) from its stage lists.
class RuleCompiler {
 public:
  // Compiles the variant of `planner` that restricts `delta_occurrence` (-1:
  // the full pass) to `delta`, planning against the sizes in `db`. Planner
  // stats (index builds, plan cost) are charged to `stats`, the calling
  // VM's own. An aggregate rule compiles like any other, except that its
  // emit projects AggregateEvaluator::WitnessTerms with no head operators:
  // one witness row per body binding, at the raw row extent.
  static RuleProgram Compile(const RulePlanner& planner, const Database& db,
                             const Database* delta, int delta_occurrence,
                             PlannerStats* stats);

  // Compiles the chain walk of a rule ChainAccelerator::Detect accepted.
  static ChainProgram CompileChain(const Rule& rule,
                                   const ChainAccelerator::ChainInfo& info);
};

}  // namespace dmtl

#endif  // DMTL_EVAL_RULE_COMPILE_H_
