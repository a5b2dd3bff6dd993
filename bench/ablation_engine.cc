// Experiment B7 - engine ablation for the design choice DESIGN.md calls
// out: chain acceleration on/off. Both variants must produce identical
// materializations; the ablation quantifies the cost of turning the
// accelerator off.
//
// Timing: one untimed warm-up run first (the first run of a process pays
// for page faults and cold caches no later run sees), then kRuns rounds
// that each run every configuration once, in turn, so host drift lands on
// every configuration alike. Each row is the median of its kRuns runs.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace dmtl;

constexpr int kRuns = 5;

struct Config {
  const char* label;
  bool accel;
};

double RunWith(const Session& session, const Program& program,
               const Config& config, EngineStats* stats) {
  Database db = SessionToDatabase(session);
  EngineOptions options = SessionEngineOptions(session);
  options.enable_chain_acceleration = config.accel;
  bench::Check(Materialize(program, &db, options, stats), "materialize");
  return stats->wall_seconds;
}

}  // namespace

int main() {
  std::printf("=== engine ablations (identical results, different cost) "
              "===\n");
  // Ablations run on a reduced session: the un-accelerated engine pays one
  // fixpoint round per tick, which is exactly the point being measured.
  WorkloadConfig workload;
  workload.name = "ablation";
  workload.num_events = 40;
  workload.num_trades = 8;
  workload.duration_s = 600;
  workload.initial_skew = -500.0;
  workload.seed = 5;
  const Session session =
      bench::Check(GenerateSession(workload), "generate");
  const Program program = bench::Check(EthPerpProgram(), "program");

  const Config configs[] = {
      {"semi-naive + accel", true},
      {"semi-naive, no acceleration", false},
  };
  constexpr size_t kConfigs = sizeof(configs) / sizeof(configs[0]);

  EngineStats warm_up;
  RunWith(session, program, configs[0], &warm_up);

  std::vector<double> times[kConfigs];
  EngineStats stats[kConfigs];
  for (int run = 0; run < kRuns; ++run) {
    for (size_t c = 0; c < kConfigs; ++c) {
      times[c].push_back(RunWith(session, program, configs[c], &stats[c]));
    }
  }
  double median[kConfigs];
  for (size_t c = 0; c < kConfigs; ++c) median[c] = bench::Median(times[c]);

  std::printf("%-32s %12s %10s %12s\n", "configuration", "runtime(s)",
              "rounds", "rule evals");
  for (size_t c = 0; c < kConfigs; ++c) {
    std::printf("%-32s %12.3f %10zu %12zu\n", configs[c].label, median[c],
                stats[c].rounds, stats[c].rule_evaluations);
  }
  std::printf("(median of %d interleaved runs after one warm-up run)\n",
              kRuns);
  std::printf("\nspeedup from chain acceleration: %.1fx\n",
              median[1] / median[0]);
  std::printf("planner: %zu indexes, %zu probes (%zu hits), %zu tuples "
              "pruned\n",
              stats[0].planner_indexes_built, stats[0].planner_index_probes,
              stats[0].planner_probe_hits, stats[0].planner_pruned_tuples);
  return 0;
}
