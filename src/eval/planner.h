#ifndef DMTL_EVAL_PLANNER_H_
#define DMTL_EVAL_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ast/rule.h"
#include "src/common/status.h"
#include "src/eval/operators.h"

namespace dmtl {

// Runtime counters of the join planner. Each rule VM keeps its own (the
// planner itself is shared by every run of a compiled program), so two
// sessions of one program never mix their counts.
struct PlannerStats {
  uint64_t indexes_built = 0;
  uint64_t index_probes = 0;
  uint64_t index_probe_hits = 0;
  // Candidate tuples skipped by a temporal-envelope or hull precheck before
  // paying for unification + IntervalSet::Intersect.
  uint64_t envelope_pruned = 0;
  // Candidate tuples handed to the per-tuple arity, hull and unification
  // tests (index entries and scanned rows alike).
  uint64_t scan_candidates = 0;
  // Estimated cost of the most recent plan (see ExplainPlan for the model).
  double last_plan_cost = 0.0;
};

// Plans one rule for the rule compiler (src/eval/rule_compile.h). Plan()
// partitions the body into the row pipeline's stages:
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
// Stage 1 is ordered by a cost-based join planner (BuildPlan): positive
// literals are reordered by estimated selectivity (the semi-naive delta
// literal pinned first), each atom probes an on-demand bound-signature
// index over its bound argument positions (Relation::GetIndex), and
// candidate tuples whose temporal envelope cannot intersect the row's
// accumulated extent are skipped before unification. The plan never
// changes what a rule derives, only the order it enumerates candidates in.
class RulePlanner {
 public:
  // Relations smaller than this are scanned rather than indexed.
  static constexpr size_t kMinTuplesForIndex = 8;

  // Validates the rule shape and precomputes the stage plan.
  static Result<RulePlanner> Create(const Rule& rule);

  RulePlanner(RulePlanner&&) = default;
  RulePlanner& operator=(RulePlanner&&) = default;
  RulePlanner(const RulePlanner&) = default;
  RulePlanner& operator=(const RulePlanner&) = default;

  // Total number of positive relational-atom occurrences (the delta
  // positions the semi-naive engine iterates over).
  int num_positive_occurrences() const { return num_occurrences_; }

  const Rule& rule() const { return rule_; }

  // Human-readable description of the join order, index signatures, and
  // prunability the planner would choose for a full (non-delta) pass over
  // `db`. Builds any indexes it would probe.
  std::string ExplainPlan(const Database& db) const;

  // Expands a row-extent hull through an atom's root-to-atom operator
  // path, yielding a superset of the time points the atom can contribute
  // from. Tuples whose stored extent cannot intersect it are skipped by
  // enumeration (prunable atoms only).
  static Interval ExpandPruneWindow(Interval window,
                                    const std::vector<OpPathStep>& path);

 private:
  // The rule compiler lowers this planner's plan into flat bytecode
  // (src/eval/rule_compile.h); it reuses BuildPlan and the literal plans so
  // the compiled join order is exactly the planned one.
  friend class RuleCompiler;

  // How a positive literal's extent is computed once its atoms are ground.
  // Single-atom shapes take a fast path that reuses the interval set found
  // during enumeration (replicating EvalMetricExtent's arithmetic exactly);
  // everything else goes through EvalMetricExtent.
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

  // The dynamic plan for one compiled variant: literal order plus the
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

  explicit RulePlanner(Rule rule) : rule_(std::move(rule)) {}

  Status Plan();

  ExecutionPlan BuildPlan(const Database& db, const Database* delta,
                          int delta_occurrence, PlannerStats* stats) const;

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

  // Join planner state (parallel to positive_literals_).
  std::vector<LiteralPlan> literal_plans_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_PLANNER_H_
