// The three perfbench workloads. Each runs in its own process (see run.py),
// derives every input from the run seed, and sizes its fixed timed work
// from the requested run length at a nominal per-op cost, so a faster
// build finishes the same work sooner instead of doing more of it.
#ifndef DMTL_PERFBENCH_WORKLOADS_H_
#define DMTL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/stratifier.h"
#include "src/contracts/eth_perp_program.h"
#include "perfbench/harness.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;  // also run a traced pass and report per-layer metrics
  int part = 0;        // this process's index when a run is split
};

// Setup is timed kFirstSetupReps times before the first op, then again in
// batches of kSetupBatchS seconds at the pauses between ops. setup_s, the
// median of all of them, so samples the whole run: host speed drifts in
// phases of seconds, and a setup timed only at the start reads one phase.
inline constexpr int kFirstSetupReps = 5;
inline constexpr double kSetupBatchS = 0.1;

// Runs `one_setup` (which records its own timings and returns a Status)
// repeatedly for kSetupBatchS seconds, at least once.
template <typename Fn>
void SetupBatch(Fn&& one_setup, RunResult* result) {
  const auto t0 = Clock::now();
  do {
    if (!result->Expect(one_setup(), "setup")) return;
  } while (MsSince(t0) < kSetupBatchS * 1000.0);
}

// Reference-kernel samples taken at each pause between ops.
inline constexpr int kRefSamples = 8;

RunResult RunPaperBatch(const RunConfig& config);
RunResult RunLiveWindow(const RunConfig& config);
RunResult RunFleetDrain(const RunConfig& config);

// The order in which op `i` runs its untraced (0) and traced (1) twins. The
// twins alternate which goes first, so warm caches and host drift do not
// bias trace.overhead_s. Without --trace only the untraced twin runs.
inline std::vector<int> ModeOrder(bool trace, int i) {
  if (!trace) return {0};
  return i % 2 == 0 ? std::vector<int>{0, 1} : std::vector<int>{1, 0};
}

// Parses the ETH-PERP program and stratifies it, timing both calls from
// outside (the parser and analysis layers every workload starts with).
struct ParsedProgram {
  dmtl::Program program;
  double parse_ms = 0.0;
  double stratify_ms = 0.0;
};

inline dmtl::Result<ParsedProgram> ParseEthPerp(Trace* trace) {
  ParsedProgram out;
  auto t0 = Clock::now();
  {
    Trace::Scope span(trace, "parser.program", -1);
    DMTL_ASSIGN_OR_RETURN(out.program, dmtl::EthPerpProgram());
  }
  out.parse_ms = MsSince(t0);
  t0 = Clock::now();
  {
    Trace::Scope span(trace, "analysis.stratify", -1);
    DMTL_RETURN_IF_ERROR(dmtl::Stratify(out.program).status());
  }
  out.stratify_ms = MsSince(t0);
  return out;
}

// The run's host readings, untraced runs included: the medians of the
// reference kernels sampled between this run's ops, printed beside its
// metrics so each end-to-end figure carries the host speed it was taken at.
inline void ReportHost(RunResult* result, const HostRef& host) {
  result->host["host.ref_us"] = {Median(host.alu_us()), "us"};
  if (!host.mem_us().empty()) {
    result->host["host.mem_ref_us"] = {Median(host.mem_us()), "us"};
  }
}

// Per-layer figures every workload reports the same way.
inline void ReportCommonLayers(RunResult* result, const Trace& trace,
                               const std::vector<double>& parse_ms,
                               const std::vector<double>& stratify_ms,
                               const std::vector<double>& generate_ms,
                               const HostRef& host,
                               double untraced_wall_s, double traced_wall_s) {
  result->Layer("parser.program_ms", Median(parse_ms), "ms");
  result->Layer("analysis.stratify_ms", Median(stratify_ms), "ms");
  result->Layer("chain.generate_ms", Median(generate_ms), "ms");
  result->Layer("host.ref_us", Median(host.alu_us()), "us");
  result->Layer("host.mem_ref_us", Median(host.mem_us()), "us");
  result->Layer("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
  result->Layer("trace.spans", static_cast<double>(trace.spans().size()),
                "count");
  for (const auto& [layer, ms] : LayerSelfMs(trace.spans())) {
    result->Layer(layer + ".self_ms", ms, "ms");
  }
}

// The engine's deterministic work counts for one op (paper_batch) or one
// pass (live_window).
inline void ReportEvalCounts(RunResult* result, const dmtl::EngineStats& st) {
  auto count = [&](const char* name, size_t value) {
    result->Layer(name, static_cast<double>(value), "count");
  };
  count("eval.rounds", st.rounds);
  count("eval.derived_intervals", st.derived_intervals);
  count("eval.delta_intervals", st.delta_intervals);
  count("eval.memo_intersections", st.memo_intersections);
  count("eval.memo_intersect_components", st.memo_intersect_components);
  count("eval.vm_dispatches", st.vm_dispatches);
  count("eval.bulk_merges", st.bulk_merges);
  const double lookups = static_cast<double>(st.memo_hits + st.memo_misses);
  result->Layer("eval.memo_hit_rate",
                lookups > 0 ? static_cast<double>(st.memo_hits) / lookups : 0,
                "ratio");
}

}  // namespace perfbench

#endif  // DMTL_PERFBENCH_WORKLOADS_H_
