// Experiment B7 - engine ablations for the design choices DESIGN.md calls
// out: (a) chain acceleration on/off, (b) semi-naive vs naive evaluation,
// (c) cost-based join planning on/off, (d) interval-delta propagation
// (operator memos) on/off. All variants must produce identical
// materializations; the ablation quantifies the cost of turning each
// optimization off.

#include <cstdio>

#include "bench/bench_util.h"

namespace {

using namespace dmtl;

double RunWith(const WorkloadConfig& config, bool accel, bool naive,
               bool planning, EngineStats* stats, bool deltas = true) {
  Session session = bench::Check(GenerateSession(config), "generate");
  Program program = bench::Check(EthPerpProgram(), "program");
  Database db = SessionToDatabase(session);
  EngineOptions options = SessionEngineOptions(session);
  options.enable_chain_acceleration = accel;
  options.naive_evaluation = naive;
  options.enable_join_planning = planning;
  options.enable_interval_deltas = deltas;
  bench::Check(Materialize(program, &db, options, stats), "materialize");
  return stats->wall_seconds;
}

}  // namespace

int main() {
  std::printf("=== engine ablations (identical results, different cost) "
              "===\n");
  // Ablations run on a reduced session: the un-accelerated engine pays one
  // fixpoint round per tick, which is exactly the point being measured.
  WorkloadConfig config;
  config.name = "ablation";
  config.num_events = 40;
  config.num_trades = 8;
  config.duration_s = 600;
  config.initial_skew = -500.0;
  config.seed = 5;

  EngineStats accel_stats;
  double accel = RunWith(config, /*accel=*/true, /*naive=*/false,
                         /*planning=*/true, &accel_stats);
  EngineStats noplan_stats;
  double noplan = RunWith(config, /*accel=*/true, /*naive=*/false,
                          /*planning=*/false, &noplan_stats);
  EngineStats nodelta_stats;
  double nodelta = RunWith(config, /*accel=*/true, /*naive=*/false,
                           /*planning=*/true, &nodelta_stats,
                           /*deltas=*/false);
  EngineStats plain_stats;
  double plain = RunWith(config, /*accel=*/false, /*naive=*/false,
                         /*planning=*/true, &plain_stats);
  EngineStats naive_stats;
  double naive = RunWith(config, /*accel=*/false, /*naive=*/true,
                         /*planning=*/true, &naive_stats);

  std::printf("%-32s %12s %10s %12s\n", "configuration", "runtime(s)",
              "rounds", "rule evals");
  std::printf("%-32s %12.3f %10zu %12zu\n", "semi-naive + accel + planner",
              accel, accel_stats.rounds, accel_stats.rule_evaluations);
  std::printf("%-32s %12.3f %10zu %12zu\n", "semi-naive + accel, no planner",
              noplan, noplan_stats.rounds, noplan_stats.rule_evaluations);
  std::printf("%-32s %12.3f %10zu %12zu\n", "semi-naive + accel, no deltas",
              nodelta, nodelta_stats.rounds, nodelta_stats.rule_evaluations);
  std::printf("%-32s %12.3f %10zu %12zu\n", "semi-naive, no acceleration",
              plain, plain_stats.rounds, plain_stats.rule_evaluations);
  std::printf("%-32s %12.3f %10zu %12zu\n", "naive re-evaluation",
              naive, naive_stats.rounds, naive_stats.rule_evaluations);
  std::printf("\nspeedup from chain acceleration: %.1fx\n", plain / accel);
  std::printf("speedup of semi-naive over naive: %.1fx\n", naive / plain);
  std::printf("speedup from join planning:       %.2fx\n", noplan / accel);
  std::printf("speedup from interval deltas:     %.2fx\n", nodelta / accel);
  std::printf("planner: %zu indexes, %zu probes (%zu hits), %zu tuples "
              "pruned\n",
              accel_stats.planner_indexes_built,
              accel_stats.planner_index_probes, accel_stats.planner_probe_hits,
              accel_stats.planner_pruned_tuples);
  return 0;
}
