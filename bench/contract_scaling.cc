// Experiment B3 - contract scaling beyond the paper: materialization cost
// as the session grows in events and window length. Shows how the engine's
// work scales with the trading activity (facts derived ~ accounts x ticks)
// and that event-driven fixpoint rounds stay proportional to events.
// Each point's sequential_s is the median of repeated in-process runs
// (bench::TimeMaterialize). Results land in BENCH_contract_scaling.json.

#include <chrono>
#include <cstdio>
#include <memory>

#include "src/common/thread_pool.h"
#include "bench/bench_util.h"

int main() {
  using namespace dmtl;
  const size_t hw_threads = ThreadPool::ResolveThreads(0);
  std::printf("=== contract scaling: events x window sweep ===\n");
  std::printf("%8s %8s %10s %10s %6s %14s %10s\n", "events", "trades",
              "window(s)", "wall(s)", "runs", "derived facts", "rounds");
  const Program program = bench::Check(EthPerpProgram(), "program");
  struct Point {
    int events;
    int trades;
    int window;
  };
  const Point points[] = {
      {30, 6, 900},    {60, 12, 1800},  {120, 26, 3600},
      {267, 59, 7200}, {400, 90, 7200}, {267, 59, 14400},
  };
  bench::JsonBuilder json;
  json.BeginObject();
  json.Field("bench", "contract_scaling");
  json.Field("hardware_threads", hw_threads);
  bench::WriteContext(&json);
  json.BeginArray("points");
  for (const Point& pt : points) {
    WorkloadConfig config;
    config.name = "scale";
    config.num_events = pt.events;
    config.num_trades = pt.trades;
    config.duration_s = pt.window;
    config.initial_skew = -1000.0;
    config.seed = 99;
    const Session session =
        bench::Check(GenerateSession(config), "generate session");
    bench::TimedPoint seq = bench::TimeMaterialize(
        program, SessionToDatabase(session), SessionEngineOptions(session));
    std::printf("%8d %8d %10d %10.4f %6zu %14zu %10zu\n", pt.events,
                pt.trades, pt.window, seq.median_s, seq.runs,
                seq.stats.derived_intervals, seq.stats.rounds);
    json.BeginObject()
        .Field("events", pt.events)
        .Field("trades", pt.trades)
        .Field("window_s", pt.window)
        .Field("sequential_s", seq.median_s)
        .Field("runs", seq.runs)
        .Field("derived", seq.stats.derived_intervals)
        .Field("rounds", seq.stats.rounds)
        .EndObject();
  }
  json.EndArray();

  // Guard-overhead row: the paper-scale 267-event/7200s point timed with
  // the execution guard disarmed vs armed (far-future deadline plus a live
  // cancellation token - the full check path, never tripping). The guard is
  // polled at round barriers, every ~256 emissions, and every ~4096 join
  // candidates, so its cost must stay in the noise: tools/bench_diff.py
  // fails a candidate whose overhead_frac is 0.02 or more. The off and on
  // runs alternate, and each side keeps its best of kReps, so host drift
  // and scheduler noise hit both sides alike and stay out of the ratio.
  {
    WorkloadConfig config;
    config.name = "scale";
    config.num_events = 267;
    config.num_trades = 59;
    config.duration_s = 7200;
    config.initial_skew = -1000.0;
    config.seed = 99;
    constexpr int kReps = 7;
    double off_s = 0.0;
    double on_s = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      bench::ExecutedSession off = bench::Execute(config);
      if (rep == 0 || off.stats.wall_seconds < off_s) {
        off_s = off.stats.wall_seconds;
      }
      EngineOptions guarded = SessionEngineOptions(off.session);
      guarded.deadline = std::chrono::hours(24);
      guarded.cancel_token = std::make_shared<CancellationToken>();
      bench::ExecutedSession on = bench::Execute(config, {}, &guarded);
      if (rep == 0 || on.stats.wall_seconds < on_s) {
        on_s = on.stats.wall_seconds;
      }
    }
    double overhead = off_s > 0 ? on_s / off_s - 1.0 : 0.0;
    std::printf("guard overhead @267x7200s: off=%.3fs on=%.3fs (%+.2f%%)\n",
                off_s, on_s, overhead * 100.0);
    json.BeginObject("guard_overhead")
        .Field("events", 267)
        .Field("window_s", 7200)
        .Field("guards_off_s", off_s)
        .Field("guards_on_s", on_s)
        .Field("overhead_frac", overhead)
        .EndObject();
  }

  json.EndObject();
  bench::WriteJson("BENCH_contract_scaling.json", json.TakeString());
  return 0;
}
