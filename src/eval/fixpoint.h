#ifndef DMTL_EVAL_FIXPOINT_H_
#define DMTL_EVAL_FIXPOINT_H_

#include <chrono>
#include <vector>

#include "src/common/execution_guard.h"
#include "src/common/status.h"
#include "src/eval/compiled_program.h"
#include "src/eval/seminaive.h"
#include "src/eval/vm.h"
#include "src/storage/database.h"

namespace dmtl {

// The stratum-by-stratum semi-naive chase, shared by batch materialization
// (Materialize builds one per call) and streaming sessions (EngineSession
// keeps one for the session's lifetime). The
// stratification and the rule plans are the CompiledProgram's; the driver
// owns only per-run state: one rule VM per rule.
//
// Every run is sequential and single-threaded; a driver serves one caller
// at a time. Drivers of one compiled program may run on different threads
// at once.
class FixpointDriver {
 public:
  // A driver with a fresh VM for each rule of `program`, which must outlive
  // it. The window bounds in `options` are not read - each run names its
  // own window.
  FixpointDriver(const CompiledProgram& program, const EngineOptions& options);

  // Runs every stratum to fixpoint over `db`, storing only coverage inside
  // `window`. Each stratum evaluates its aggregate rules once, then round 0,
  // then semi-naive rounds over the previous round's fresh coverage until
  // a round adds nothing.
  //
  //  * seeds == nullptr (batch): round 0 evaluates every plain rule in
  //    full.
  //  * seeds != nullptr (seeded): a stratum runs only when a positive body
  //    predicate has coverage in `seeds`, and round 0 evaluates just the
  //    occurrences (and chain and aggregate rules) that `seeds` reaches.
  //    Each round's fresh coverage is merged back into `seeds`, so later
  //    strata see it.
  //
  // Emissions carry provenance into `provenance` when non-null. Counters
  // are added to `stats`. The run is guarded by a fresh ExecutionGuard
  // over the options' deadline and cancellation token. On any failure the
  // round in progress is rolled back (the store and `provenance` sit at
  // the last completed round barrier) and `stats` names the stratum and
  // round. Every exit finishes `stats` as FinishRun does, with wall time
  // counted from `start`, and adds the guard's checks. Never throws.
  Status Run(Database* db, const Interval& window, Database* seeds,
             std::vector<DerivationRecord>* provenance, EngineStats* stats,
             std::chrono::steady_clock::time_point start =
                 std::chrono::steady_clock::now());

  // Drops the VMs' compiled programs, which hold relation and index
  // pointers into the database they last ran on. Run does this itself
  // whenever it is handed a different database than the previous run;
  // callers do it after editing the database outside Run (clearing it,
  // removing regions).
  void InvalidateCompiledState();

 private:
  // Every evaluation of one rule within a round. Task lists are built from
  // round-start state in rule-index order, so a round's emission order is
  // fixed.
  struct RoundTask {
    size_t rule_id = 0;
    bool initial = false;                // full (non-delta) evaluation
    bool chain = false;                  // run the VM's chain kernel
    std::vector<int> delta_occurrences;  // semi-naive positions to re-evaluate
  };

  class Sink;

  // Counter totals across the persistent VMs; a run reports the
  // difference between its exit and entry totals.
  struct Counters {
    uint64_t idx_built = 0, probes = 0, probe_hits = 0, pruned = 0;
    uint64_t vm_disp = 0, vm_comp = 0, bulk = 0;
  };

  Status RunStratum(int s, Database* db, const Interval& window,
                    Database* seeds,
                    std::vector<DerivationRecord>* provenance,
                    EngineStats* stats, const ExecutionGuard* guard);
  Status RunRound(const std::vector<RoundTask>& tasks, const Database& db,
                  const Database& delta, const Interval& window, size_t round,
                  Sink* sink, EngineStats* stats,
                  const ExecutionGuard* guard);
  // The positive occurrences of plain rule `id` whose predicate has
  // coverage in `delta`.
  std::vector<int> DeltaOccurrences(size_t id, const Database& delta) const;
  Counters Snapshot() const;

  const CompiledProgram& program_;
  EngineOptions options_;
  std::vector<RuleVm> vms_;  // indexed like program_.rules()
  const Database* bound_db_ = nullptr;  // the database the VMs last ran on
};

// Finishes a run's stop diagnostics: intervals_at_stop is `db`'s size,
// wall_seconds the time since `start`, and a failed `status` maps onto
// stop_reason, unless the run already recorded a more specific reason
// (kMaxRounds).
void FinishRun(const Status& status, const Database& db,
               std::chrono::steady_clock::time_point start,
               EngineStats* stats);

}  // namespace dmtl

#endif  // DMTL_EVAL_FIXPOINT_H_
