#ifndef DMTL_EVAL_COMPILED_PROGRAM_H_
#define DMTL_EVAL_COMPILED_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/analysis/stratifier.h"
#include "src/ast/program.h"
#include "src/common/status.h"
#include "src/eval/aggregate_eval.h"
#include "src/eval/bytecode.h"
#include "src/eval/planner.h"

namespace dmtl {

// Forward reaches gathered by the streaming eligibility walk.
struct StreamingReach {
  Rational reach;  // max forward reach R over positive atoms
  bool reach_inf = false;
  // The same maximum over every relational atom, negated ones included:
  // the slide cut-off's band width (see EngineSession).
  Rational cutoff;
  bool cutoff_inf = false;
};

// One program, validated and compiled once for every run of it. Create
// checks arities, safety and stratification, plans each rule, compiles the
// walk of each chain rule and the grouping of each aggregate rule, and runs
// the streaming eligibility walk. This is the only place a program is
// stratified and planned.
//
// Immutable after Create and shared by std::shared_ptr: batch runs,
// streaming sessions and the fleet's hosted sessions all run one
// CompiledProgram, on any number of threads at once. Everything a run
// changes - bytecode variants compiled against its database, caches,
// counters - lives in the run's own FixpointDriver.
class CompiledProgram {
 public:
  // What every run of one rule shares.
  struct CompiledRule {
    RulePlanner planner;
    std::optional<ChainProgram> chain;       // a detected chain rule's walk
    std::optional<AggregateEvaluator> agg;   // an aggregating head's grouping
    // Predicates of the rule's positive relational atoms: what a seed must
    // touch to wake the rule.
    std::set<PredicateId> positive_preds;

    const Rule& rule() const { return planner.rule(); }
  };

  static Result<std::shared_ptr<const CompiledProgram>> Create(
      Program program);

  const Program& program() const { return program_; }
  const Stratification& stratification() const { return strat_; }
  // Indexed like program().rules().
  const std::vector<CompiledRule>& rules() const { return rules_; }
  // The union of positive_preds over stratum `s`'s rules: what a seed must
  // touch to wake the stratum.
  const std::set<PredicateId>& stratum_body_preds(int s) const {
    return stratum_body_preds_[s];
  }

  // Ok when every rule is streaming-eligible: no head operators,
  // past-directed body operators with finite non-negative lower range
  // bounds, no since/until, and a positive relational atom in each rule.
  // Batch runs accept any valid program; only streaming needs this.
  const Status& streaming_status() const { return streaming_status_; }
  // The reaches of a streaming-eligible program.
  const StreamingReach& streaming_reach() const { return reach_; }

  // ProgramFingerprint(program()), computed on first use and then kept: a
  // program that is never checkpointed never pays for it.
  uint64_t fingerprint() const;

 private:
  explicit CompiledProgram(Program program) : program_(std::move(program)) {}

  Program program_;
  Stratification strat_;
  std::vector<CompiledRule> rules_;
  std::vector<std::set<PredicateId>> stratum_body_preds_;
  Status streaming_status_ = Status::Ok();
  StreamingReach reach_;

  mutable std::once_flag fingerprint_once_;
  mutable uint64_t fingerprint_ = 0;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_COMPILED_PROGRAM_H_
