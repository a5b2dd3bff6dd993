// Fleet-mode benchmark.
//
// Hosts 1k / 4k / 10k tiny account-sharded ETH-PERP sessions on the
// FleetServer and drains them across the work-stealing scheduler at 1, 2
// and 4 workers, recording sessions/sec, aggregate derived-intervals/sec,
// and the fleet-wide per-advance latency distribution (p50 / p99). Sessions
// are the engine's only parallel axis (every engine run is sequential), so
// the worker sweep is its scaling curve. Every session is
// shared-nothing - its own window, its own order flow, its own snapshots -
// so this measures exactly the "millions of users" multiplexing shape:
// thousands of cheap independent materializations per scheduler pass.
//
// Per-session work is deliberately tiny (a 5-minute window, a handful of
// orders): the axis under test is session count, not window size -
// contract_scaling.cc already prices the big-window shape.
//
// The 1k point runs best-of-3; the 4k and 10k points run once (their wall
// time is the measurement, and one drain is already thousands of
// materialization slices - scheduler noise amortizes out).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/chain/workload.h"
#include "src/common/thread_pool.h"
#include "src/contracts/eth_perp_program.h"
#include "src/fleet/server.h"
#include "src/fleet/workload.h"
#include "bench/bench_util.h"

namespace {

// Nearest-rank percentile (p in [0, 100]) over a copy of `samples`.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

}  // namespace

int main() {
  using namespace dmtl;

  std::printf("=== fleet: shared-nothing session server scaling ===\n");
  std::printf("%10s %8s | %10s %14s | %12s %12s\n", "sessions", "workers",
              "wall", "sessions/s", "adv p50", "adv p99");

  Program program = bench::Check(EthPerpProgram(), "parse ETH-PERP program");

  // Tiny per-session windows (10 min - the generator's minimum - with 4
  // orders, 1 trade, 4 oracle ticks): ~8 advances per session, so the 10k
  // point is ~80k scheduler slices.
  WorkloadConfig base;
  base.name = "fleet";
  base.duration_s = 600;
  base.num_events = 4;
  base.num_trades = 1;
  base.price.update_interval_s = 150;

  struct Point {
    int sessions;
    int reps;
  };
  const Point points[] = {{1000, 3}, {4000, 1}, {10000, 1}};
  const int worker_counts[] = {1, 2, 4};

  bench::JsonBuilder json;
  json.BeginObject();
  json.Field("bench", "fleet");
  json.Field("hardware_threads", ThreadPool::ResolveThreads(0));
  bench::WriteContext(&json);
  json.BeginArray("runs");

  for (const Point& pt : points) {
    // Workload generation is setup, not measurement: generate (and compile
    // to ops) once per point, outside the timed region.
    std::vector<WorkloadConfig> configs = ShardConfigs(base, pt.sessions);
    std::vector<Session> sessions;
    std::vector<std::vector<FleetOp>> ops;
    sessions.reserve(configs.size());
    ops.reserve(configs.size());
    for (const WorkloadConfig& config : configs) {
      sessions.push_back(
          bench::Check(GenerateSession(config), "generate session"));
      ops.push_back(SessionToOps(sessions.back()));
    }

    for (int num_workers : worker_counts) {
      double wall_s = 0.0;
      double p50_s = 0.0, p99_s = 0.0;
      size_t total_ops = 0, advances = 0, derived = 0, snapshots = 0;
      for (int rep = 0; rep < pt.reps; ++rep) {
        FleetOptions fopts;
        fopts.num_threads = num_workers;
        // Throughput mode: a slice quantum that covers a whole tiny session
        // plus passivation, so resident engine state tracks the workers, not
        // the 10k open sessions. (The fairness-quantum shape - small slices,
        // every session live - is what the fleet tests exercise; holding 10k
        // live materializations at once just measures the allocator.)
        fopts.ops_per_slice = 64;
        fopts.passivate_drained = true;
        auto created = FleetServer::Create(fopts);
        bench::Check(created.status(), "create server");
        FleetServer& server = **created;
        bench::Check(server.RegisterProgram("eth-perp", program),
                     "register program");
        for (size_t i = 0; i < configs.size(); ++i) {
          SessionKey key{"eth-perp", 0, configs[i].name};
          bench::Check(server.Open(key, Rational(sessions[i].start_time)),
                       "open");
          bench::Check(server.Enqueue(key, ops[i]), "enqueue");
        }

        auto t0 = std::chrono::steady_clock::now();
        std::vector<SessionReport> reports =
            bench::Check(server.Drain(), "drain fleet");
        double rep_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

        total_ops = 0;
        advances = 0;
        derived = 0;
        snapshots = 0;
        std::vector<double> latencies_us;
        for (const SessionReport& report : reports) {
          bench::Check(report.status, "fleet session");
          total_ops += report.ops_executed;
          advances += report.advances;
          derived += report.derived_intervals;
          snapshots += report.snapshots_taken;
          latencies_us.insert(latencies_us.end(),
                              report.advance_latencies_us.begin(),
                              report.advance_latencies_us.end());
        }
        double p50 = Percentile(latencies_us, 50.0) * 1e-6;
        double p99 = Percentile(latencies_us, 99.0) * 1e-6;
        if (rep == 0 || rep_wall < wall_s) wall_s = rep_wall;
        if (rep == 0 || p50 < p50_s) p50_s = p50;
        if (rep == 0 || p99 < p99_s) p99_s = p99;
      }

      double sessions_per_sec =
          wall_s > 0 ? static_cast<double>(pt.sessions) / wall_s : 0.0;
      double intervals_per_sec =
          wall_s > 0 ? static_cast<double>(derived) / wall_s : 0.0;
      std::printf("%10d %8d | %9.3fs %13.0f/s | %10.1fus %10.1fus\n",
                  pt.sessions, num_workers, wall_s, sessions_per_sec,
                  p50_s * 1e6, p99_s * 1e6);

      json.BeginObject()
          .Field("sessions", pt.sessions)
          .Field("workers", num_workers)
          .Field("ops", total_ops)
          .Field("advances", advances)
          .Field("derived", derived)
          .Field("snapshots", snapshots)
          .Field("wall_s", wall_s)
          .Field("advance_p50_s", p50_s)
          .Field("advance_p99_s", p99_s)
          .Field("sessions_per_sec", sessions_per_sec)
          .Field("derived_intervals_per_sec", intervals_per_sec)
          .EndObject();
    }
  }
  json.EndArray();
  json.EndObject();
  bench::WriteJson("BENCH_fleet.json", json.TakeString());

  std::printf("done\n");
  return 0;
}
