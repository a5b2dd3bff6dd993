#ifndef DMTL_EVAL_RULE_EVAL_H_
#define DMTL_EVAL_RULE_EVAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ast/rule.h"
#include "src/common/status.h"
#include "src/eval/operators.h"

namespace dmtl {

// Runtime counters of the join planner, shared by every copy of one
// evaluator. Relaxed atomics: an evaluator is only driven from its run's
// thread, but a fleet session may move between scheduler workers from one
// slice to the next; the atomics keep those handoffs race-free under TSan.
struct PlannerStats {
  std::atomic<uint64_t> indexes_built{0};
  std::atomic<uint64_t> index_probes{0};
  std::atomic<uint64_t> index_probe_hits{0};
  // Candidate tuples skipped by a temporal-envelope or hull precheck before
  // paying for unification + IntervalSet::Intersect.
  std::atomic<uint64_t> envelope_pruned{0};
  // Estimated cost of the most recent plan (see ExplainPlan for the model).
  std::atomic<double> last_plan_cost{0.0};
};

// Evaluates one rule bottom-up against a database (optionally with a
// semi-naive delta restriction on a single positive relational-atom
// occurrence). Staged pipeline:
//
//   1. positive literals: enumerate tuple groundings, intersect extents;
//   2. early builtins (assignments/comparisons not depending on
//      timestamp-bound variables);
//   3. negated literals: subtract their extents (unbound variables are
//      existential, e.g. `not order(A, _)`);
//   4. timestamp() builtins: split each row into one row per punctual time
//      point of its extent, binding the variable;
//   5. late builtins (those depending on timestamp variables).
//
// The head's boxminus/boxplus operator chain is applied as a dilation to
// the final extent.
//
// Stage 1 runs through a cost-based join planner by default: positive
// literals are reordered by estimated selectivity (the semi-naive delta
// literal pinned first), each atom probes an on-demand bound-signature
// index over its bound argument positions (Relation::GetIndex), and
// candidate tuples whose temporal envelope cannot intersect the row's
// accumulated extent are skipped before unification. The planner is a pure
// optimization: the produced rows - and therefore the materialization - are
// identical with it on or off (EngineOptions::enable_join_planning).
class RuleEvaluator {
 public:
  // Validates the rule shape and precomputes the stage plan.
  static Result<RuleEvaluator> Create(const Rule& rule,
                                      bool enable_join_planning = true);

  RuleEvaluator(RuleEvaluator&&) = default;
  RuleEvaluator& operator=(RuleEvaluator&&) = default;
  RuleEvaluator(const RuleEvaluator&) = default;
  RuleEvaluator& operator=(const RuleEvaluator&) = default;

  // Total number of positive relational-atom occurrences (the delta
  // positions the semi-naive engine iterates over).
  int num_positive_occurrences() const { return num_occurrences_; }

  const Rule& rule() const { return rule_; }

  // Null when join planning is disabled. Shared across copies.
  const PlannerStats* planner_stats() const { return planner_stats_.get(); }
  bool planning_enabled() const { return planning_; }

  using EmitFn =
      std::function<Status(const Tuple& tuple, const IntervalSet& extent)>;

  // Runs stages 1-5 and emits one (head tuple, extent) per surviving row.
  // `delta_occurrence` in [0, num_positive_occurrences) restricts that
  // occurrence to `delta`; -1 evaluates fully. Not usable on aggregate
  // heads (see AggregateEvaluator). A non-null `guard` is checked every
  // few thousand candidate tuples and between stages, so one huge join
  // cannot outlive a deadline or ignore cancellation; on a trip the
  // evaluation returns the guard's error mid-rule and the engine rolls the
  // round back.
  Status Evaluate(const Database& db, const Database* delta,
                  int delta_occurrence, const EmitFn& emit,
                  const ExecutionGuard* guard = nullptr) const;

  // Like Evaluate but stops after stage 5, returning the surviving rows.
  Status EvaluateRows(const Database& db, const Database* delta,
                      int delta_occurrence, std::vector<BindingRow>* rows,
                      const ExecutionGuard* guard = nullptr) const;

  // Human-readable description of the join order, index signatures, and
  // prunability the planner would choose for a full (non-delta) pass over
  // `db`. Builds any indexes it would probe.
  std::string ExplainPlan(const Database& db) const;

 private:
  // The rule compiler lowers this evaluator's plan into flat bytecode
  // (src/eval/rule_compile.h); it reuses BuildPlan and the literal plans so
  // the compiled join order is exactly the planned one.
  friend class RuleCompiler;

  // How a positive literal's extent is computed once its atoms are ground.
  // Single-atom shapes take a fast path that reuses the interval set found
  // during enumeration (replicating EvalMetricExtent's arithmetic exactly);
  // everything else falls back to EvalMetricExtent.
  enum class LiteralShape : uint8_t {
    kBareAtom,    // the literal is a single relational atom
    kUnaryChain,  // nested unary MTL ops around a single relational atom
    kGeneral,     // anything else (binary ops, truth/falsity, multi-atom)
  };

  // One operator step on the root-to-atom path of a relational atom inside
  // its literal's metric tree.
  using PathStep = OpPathStep;
  // Static per-atom facts, computed once at Plan() time.
  struct AtomPlan {
    std::vector<PathStep> path;  // root-to-atom operator chain
    // True when an empty atom extent forces an empty literal extent, i.e.
    // the atom is never the left operand of since/until (whose rho may
    // contain 0, making an empty LHS hold vacuously). Only prunable atoms
    // may be skipped on temporal-envelope misses.
    bool prunable = true;
  };
  struct LiteralPlan {
    std::vector<AtomPlan> atoms;  // pre-order, parallel to the atom list
    LiteralShape shape = LiteralShape::kGeneral;
  };

  // The dynamic plan for one EvaluateRows call: literal order plus the
  // index each atom probes, resolved against the current relation sizes.
  struct ExecutionPlan {
    struct AtomProbe {
      uint64_t signature = 0;  // bound positions at probe time
      const Relation* rel = nullptr;
      const Relation::BoundIndex* index = nullptr;  // null = scan
    };
    struct Step {
      size_t p = 0;                  // index into positive_literals_
      int literal_delta_offset = -1;
      double cost = 0.0;             // estimated enumeration cost
      std::vector<AtomProbe> probes;
    };
    std::vector<Step> steps;
    double total_cost = 0.0;
  };

  explicit RuleEvaluator(Rule rule) : rule_(std::move(rule)) {}

  Status Plan();

  // Hull-level mirror of ChildWindow: expands the row-extent hull through
  // the atom's root-to-atom operator path, yielding a superset of the time
  // points the atom can contribute from. Tuples whose stored extent cannot
  // intersect it are skipped by enumeration (prunable atoms only).
  static Interval ExpandPruneWindow(Interval window,
                                    const std::vector<PathStep>& path);

  ExecutionPlan BuildPlan(const Database& db, const Database* delta,
                          int delta_occurrence, PlannerStats* stats) const;

  // Stage 1 under the planner: reordered, index-probed, envelope-pruned.
  Status EvaluatePositivePlanned(const Database& db, const Database* delta,
                                 int delta_occurrence,
                                 std::vector<BindingRow>* rows,
                                 const ExecutionGuard* guard) const;

  Rule rule_;
  // Indices into rule_.body per stage.
  std::vector<size_t> positive_literals_;
  std::vector<size_t> negated_literals_;
  std::vector<size_t> early_builtins_;   // in dependency order
  std::vector<size_t> timestamp_builtins_;
  std::vector<size_t> late_builtins_;
  // Global occurrence index of the first relational atom of each positive
  // literal (parallel to positive_literals_).
  std::vector<int> occurrence_start_;
  int num_occurrences_ = 0;

  // Join planner state (parallel to positive_literals_; empty when off).
  bool planning_ = true;
  std::vector<LiteralPlan> literal_plans_;
  std::shared_ptr<PlannerStats> planner_stats_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_RULE_EVAL_H_
