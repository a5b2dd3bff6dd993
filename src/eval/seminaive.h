#ifndef DMTL_EVAL_SEMINAIVE_H_
#define DMTL_EVAL_SEMINAIVE_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/common/execution_guard.h"
#include "src/common/status.h"
#include "src/storage/database.h"

namespace dmtl {

// One provenance record: a fact piece and the rule occurrence that first
// derived it (input facts are never recorded, only derivations).
// rule_index indexes program.rules().
struct DerivationRecord {
  PredicateId predicate = 0;
  Tuple tuple;
  Interval piece = Interval::Point(Rational(0));
  size_t rule_index = 0;
  size_t round = 0;  // 0 = the stratum's initial full round

  std::string ToString(const Program& program) const;
};

// Materialization options.
struct EngineOptions {
  // Derived facts are clamped to [min_time, max_time]; unbounded when unset.
  // Programs whose recursive temporal rules would otherwise propagate
  // forever (the paper's "market never closes" case) need a horizon.
  std::optional<Rational> min_time;
  std::optional<Rational> max_time;

  // Hard budget on stored intervals; exceeded -> kResourceExhausted.
  size_t max_intervals = 100'000'000;

  // Hard cap on fixpoint rounds per stratum.
  size_t max_rounds = 10'000'000;

  // Wall-clock budget for each fixpoint run, measured from the run's start
  // (a Materialize call's run starts once its program is compiled);
  // exceeded -> kDeadlineExceeded. Checked at round
  // barriers, every few hundred emissions, and every few thousand candidate
  // tuples inside joins, so even one divergent rule observes it within
  // milliseconds. On a trip the database is left at the last completed
  // round barrier (see docs/robustness.md). Unset = no deadline.
  std::optional<std::chrono::milliseconds> deadline;

  // Cooperative cancellation: create a token, pass it here, and call
  // Cancel() from any thread while Materialize runs; the engine stops at
  // its next guard check with kCancelled and the same round-barrier
  // database guarantee as a deadline trip. Unset = not cancellable.
  std::shared_ptr<CancellationToken> cancel_token;

  // When set, every newly derived fact piece is appended here with the
  // rule that produced it - the "why" behind each contract state change
  // (the explainability the paper argues for, as data). Opt-in: a full
  // trading session derives millions of pieces.
  std::vector<DerivationRecord>* provenance = nullptr;
};

// Why a materialization stopped. Anything but kCompleted comes with the
// round-barrier guarantee: the database equals the state after the last
// fully completed fixpoint round (partial work of the aborted round is
// rolled back).
enum class StopReason {
  kCompleted = 0,   // ran to fixpoint
  kDeadline,        // EngineOptions::deadline exceeded
  kCancelled,       // CancellationToken fired
  kMaxIntervals,    // stored-interval budget exhausted
  kMaxRounds,       // per-stratum round cap hit
  kError,           // evaluation error / internal fault
};

// Stable name, e.g. "deadline"; for logs and CLI diagnostics.
const char* StopReasonToString(StopReason reason);

// Counters of one materialization run.
struct EngineStats {
  int num_strata = 0;
  size_t rounds = 0;
  size_t rule_evaluations = 0;
  size_t derived_intervals = 0;   // newly covered interval pieces inserted
  size_t chain_extensions = 0;    // facts emitted by the accelerator
  double wall_seconds = 0;

  // --- stop diagnostics (populated on every exit path) --------------------
  StopReason stop_reason = StopReason::kCompleted;
  // Stratum being evaluated when the run stopped; -1 when it completed (or
  // never reached evaluation, e.g. a validation error).
  int stopped_stratum = -1;
  // Round in progress when the run stopped: 0 is the stratum's initial full
  // round, k >= 1 the k-th fixpoint round (matching DerivationRecord
  // numbering). The database holds exactly rounds [0, stopped_round) of the
  // stopped stratum plus every earlier stratum in full.
  size_t stopped_round = 0;
  size_t intervals_at_stop = 0;     // db->NumIntervals() at exit
  // Interval pieces discarded when the aborted round was rolled back.
  size_t rolled_back_intervals = 0;
  uint64_t guard_checks = 0;        // deadline/cancellation checks performed
  // Streaming slides only (EngineSession::Slide): true when the
  // convergence cut-off held and the stored suffix above the cut-off was
  // kept; false when the slide rebuilt the whole window.
  bool retract_suffix_kept = false;

  // One-line failure report ("stop_reason=deadline stratum=0 round=41 ...");
  // the CLI prints this on guard trips and budget exhaustion.
  std::string StopDiagnostics() const;

  // --- join planner --------------------------------------------------------
  size_t planner_indexes_built = 0;  // bound-signature indexes materialized
  size_t planner_index_probes = 0;   // index lookups issued
  size_t planner_probe_hits = 0;     // lookups that found a posting list
  size_t planner_pruned_tuples = 0;  // candidates skipped by envelope/hull
  // Candidate tuples handed to the per-tuple arity, hull and unification
  // tests: what a join walked after its index and time-index lookups.
  size_t scan_candidates = 0;
  // Estimated cost of each rule's most recent plan, indexed like
  // program.rules().
  std::vector<double> rule_plan_cost;

  // --- semi-naive rounds --------------------------------------------------
  size_t delta_intervals = 0;      // total intervals across fixpoint deltas
  size_t bulk_merges = 0;          // IntervalSet bulk coalescing sweeps

  // --- rule compilation ----------------------------------------------------
  size_t compiled_rules = 0;   // rules lowered to bytecode programs
  size_t vm_dispatches = 0;    // compiled executions (evaluate + chain)
  size_t vm_recompiles = 0;    // program (re)compilations, incl. replans

  // Wall time per stratum (index = stratum number).
  std::vector<double> stratum_wall_seconds;

  // always 0; read by perfbench; drop in the next benchmark PR
  size_t memo_hits = 0;
  // always 0; read by perfbench; drop in the next benchmark PR
  size_t memo_misses = 0;
  // always 0; read by perfbench; drop in the next benchmark PR
  size_t memo_intersections = 0;
  // always 0; read by perfbench; drop in the next benchmark PR
  size_t memo_intersect_components = 0;

  std::string ToString() const;
};

class CompiledProgram;

// Runs the DatalogMTL chase: evaluates the compiled program stratum by
// stratum to fixpoint, augmenting `db` in place with every entailed fact
// (insert-only, per the paper's monotone execution model).
//
// Failure is graceful: on a deadline trip, cancellation, budget exhaustion,
// or any evaluation fault, the partial work of the round in progress is
// rolled back so `db` sits exactly at the last completed round barrier
// (still a sound under-approximation of the fixpoint - re-running with a
// horizon continues from it), and `stats` carries the stop diagnostics.
// Materialize never throws. It evaluates on the calling thread; independent
// runs (sessions) may proceed on different threads at once, also runs of
// one compiled program.
Status Materialize(const CompiledProgram& program, Database* db,
                   const EngineOptions& options = {},
                   EngineStats* stats = nullptr);

// Compiles `program` (checks arities and safety, stratifies, plans; see
// CompiledProgram::Create) and runs the compiled program as above;
// `stats->wall_seconds` includes the compile. A program that fails to
// compile leaves `db` untouched and reports StopReason::kError.
Status Materialize(const Program& program, Database* db,
                   const EngineOptions& options = {},
                   EngineStats* stats = nullptr);

}  // namespace dmtl

#endif  // DMTL_EVAL_SEMINAIVE_H_
