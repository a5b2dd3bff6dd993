#include "src/eval/seminaive.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "src/eval/fixpoint.h"

namespace dmtl {

namespace {

Interval HorizonWindow(const EngineOptions& options) {
  Bound lo = options.min_time.has_value() ? Bound::Closed(*options.min_time)
                                          : Bound::Infinite();
  Bound hi = options.max_time.has_value() ? Bound::Closed(*options.max_time)
                                          : Bound::Infinite();
  auto window = Interval::Make(lo, hi);
  // Empty windows are a caller error caught at option validation below.
  return window.value_or(Interval::All());
}

}  // namespace

std::string DerivationRecord::ToString(const Program& program) const {
  std::string out = PredicateName(predicate) + TupleToString(tuple) + "@" +
                    piece.ToString() + " by rule #" +
                    std::to_string(rule_index);
  if (rule_index < program.rules().size()) {
    out += " [" + program.rules()[rule_index].ToString() + "]";
  }
  out += " (round " + std::to_string(round) + ")";
  return out;
}

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kMaxIntervals:
      return "max_intervals";
    case StopReason::kMaxRounds:
      return "max_rounds";
    case StopReason::kError:
      return "error";
  }
  return "unknown";
}

std::string EngineStats::StopDiagnostics() const {
  std::string out = std::string("stop_reason=") +
                    StopReasonToString(stop_reason) +
                    " stratum=" + std::to_string(stopped_stratum) +
                    " round=" + std::to_string(stopped_round) +
                    " intervals=" + std::to_string(intervals_at_stop);
  if (rolled_back_intervals > 0) {
    out += " rolled_back=" + std::to_string(rolled_back_intervals);
  }
  out += " wall_seconds=" + std::to_string(wall_seconds);
  return out;
}

std::string EngineStats::ToString() const {
  std::string out = "strata=" + std::to_string(num_strata) +
                    " rounds=" + std::to_string(rounds) +
                    " rule_evals=" + std::to_string(rule_evaluations) +
                    " derived_intervals=" + std::to_string(derived_intervals) +
                    " chain_extensions=" + std::to_string(chain_extensions) +
                    " wall_seconds=" + std::to_string(wall_seconds);
  if (compiled_rules + vm_dispatches > 0) {
    out += " compiled_rules=" + std::to_string(compiled_rules) +
           " vm_dispatches=" + std::to_string(vm_dispatches) +
           " vm_recompiles=" + std::to_string(vm_recompiles);
  }
  out += " delta_intervals=" + std::to_string(delta_intervals) +
         " bulk_merges=" + std::to_string(bulk_merges);
  if (planner_indexes_built + planner_index_probes + planner_pruned_tuples +
          scan_candidates >
      0) {
    out += " planner_indexes=" + std::to_string(planner_indexes_built) +
           " planner_probes=" + std::to_string(planner_index_probes) +
           " planner_probe_hits=" + std::to_string(planner_probe_hits) +
           " planner_pruned=" + std::to_string(planner_pruned_tuples) +
           " scan_candidates=" + std::to_string(scan_candidates);
  }
  if (guard_checks > 0) {
    out += " guard_checks=" + std::to_string(guard_checks);
  }
  if (stop_reason != StopReason::kCompleted) {
    out += " " + StopDiagnostics();
  }
  return out;
}

namespace {

// The one run behind both Materialize overloads. It runs `compiled`, or,
// when that is null, compiles `source` first, so wall_seconds counts the
// compile and a program that fails to compile finalizes its stats like any
// other failure.
Status MaterializeTimed(const Program* source, const CompiledProgram* compiled,
                        Database* db, const EngineOptions& options,
                        EngineStats* stats) {
  auto start_time = std::chrono::steady_clock::now();
  EngineStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = EngineStats();

  // A run finishes its own stats; errors before it finish them here.
  auto fail = [&](Status status) {
    FinishRun(status, *db, start_time, stats);
    return status;
  };
  if (options.min_time.has_value() && options.max_time.has_value() &&
      *options.max_time < *options.min_time) {
    return fail(Status::InvalidArgument("max_time precedes min_time"));
  }
  std::shared_ptr<const CompiledProgram> owned;
  if (compiled == nullptr) {
    Result<std::shared_ptr<const CompiledProgram>> created =
        CompiledProgram::Create(*source);
    if (!created.ok()) return fail(created.status());
    owned = std::move(created).value();
    compiled = owned.get();
  }
  FixpointDriver driver(*compiled, options);
  return driver.Run(db, HorizonWindow(options), nullptr, options.provenance,
                    stats, start_time);
}

}  // namespace

Status Materialize(const CompiledProgram& program, Database* db,
                   const EngineOptions& options, EngineStats* stats) {
  return MaterializeTimed(nullptr, &program, db, options, stats);
}

Status Materialize(const Program& program, Database* db,
                   const EngineOptions& options, EngineStats* stats) {
  return MaterializeTimed(&program, nullptr, db, options, stats);
}

}  // namespace dmtl
