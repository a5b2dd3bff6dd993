// Streaming materialization benchmark (ISSUE 8 acceptance artifact).
//
// Replays paper-scale ETH-PERP sessions through a live streaming EngineSession -
// one chain event at a time - and records the per-event latency
// distribution (p50 / p99 / max) against the amortized cost of the batch
// replay the repo ran before streaming existed (batch wall / events). The
// acceptance bar: at the 267-event / 14400 s point the steady-state p50 is
// at least 100x cheaper than the amortized batch cost.
//
// A second lane per point re-runs the stream with a sliding window
// (horizon = window / 4), so every advance past the horizon also retracts
// expired coverage through the convergence cut-off (or a cold rebuild);
// its percentiles price retraction, not just insertion.
//
// Each lane is best-of-kReps to keep scheduler noise out of the committed
// baseline; per-event percentiles take the minimum across reps.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/chain/replayer.h"
#include "src/common/thread_pool.h"
#include "src/engine/session.h"
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
  const size_t hw_threads = ThreadPool::ResolveThreads(0);
  constexpr int kReps = 3;

  std::printf("=== streaming: per-event latency vs amortized batch ===\n");
  std::printf("%16s %8s %10s | %14s | %12s %12s %10s\n", "point", "events",
              "window(s)", "batch/event", "p50", "p99", "speedup");

  struct Point {
    const char* name;
    int events;
    int trades;
    int window;
  };
  // The paper-scale point (267ev/14400s - the 2.34 s batch run quoted in
  // ROADMAP item 1) plus a mid-size point so the diff has a second identity.
  const Point points[] = {
      {"eth_perp_120", 120, 26, 3600},
      {"eth_perp_267", 267, 59, 14400},
  };

  bench::JsonBuilder json;
  json.BeginObject();
  json.Field("bench", "streaming");
  json.Field("hardware_threads", hw_threads);
  bench::WriteContext(&json);
  json.BeginArray("runs");

  for (const Point& pt : points) {
    WorkloadConfig config;
    config.name = "stream";
    config.num_events = pt.events;
    config.num_trades = pt.trades;
    config.duration_s = pt.window;
    config.initial_skew = -1000.0;
    config.seed = 99;
    Session chain = bench::Check(GenerateSession(config), "generate session");
    Program program = bench::Check(EthPerpProgram(), "parse ETH-PERP program");

    // Batch lane: the cold replay the streaming session replaces. Engine
    // wall time only (no reference run), best of kReps.
    double batch_s = 0.0;
    size_t batch_derived = 0;
    size_t batch_rounds = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Database db = SessionToDatabase(chain);
      EngineStats stats;
      bench::Check(
          Materialize(program, &db, SessionEngineOptions(chain), &stats),
          "batch materialize");
      if (rep == 0 || stats.wall_seconds < batch_s) {
        batch_s = stats.wall_seconds;
      }
      batch_derived = stats.derived_intervals;
      batch_rounds = stats.rounds;
    }
    double batch_event_s = batch_s / static_cast<double>(pt.events);

    // Streaming lane (growing window): one advance per distinct event time.
    double p50_s = 0.0, p99_s = 0.0, max_s = 0.0, total_s = 0.0;
    size_t advances = 0;
    size_t stream_intervals = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      SessionOptions options;
      options.start_time = Rational(chain.start_time);
      auto session = EngineSession::Create(program, options);
      bench::Check(session.status(), "create streaming session");
      std::vector<double> latencies_us;
      bench::Check(ReplaySessionStream(chain, session->get(), &latencies_us),
                   "stream replay");
      double p50 = Percentile(latencies_us, 50.0) * 1e-6;
      double p99 = Percentile(latencies_us, 99.0) * 1e-6;
      double max = Percentile(latencies_us, 100.0) * 1e-6;
      double total = 0.0;
      for (double us : latencies_us) total += us * 1e-6;
      if (rep == 0 || p50 < p50_s) p50_s = p50;
      if (rep == 0 || p99 < p99_s) p99_s = p99;
      if (rep == 0 || max < max_s) max_s = max;
      if (rep == 0 || total < total_s) total_s = total;
      advances = latencies_us.size();
      stream_intervals = (*session)->db().NumIntervals();
    }
    double speedup = p50_s > 0 ? batch_event_s / p50_s : 0.0;

    // Sliding lane: same stream with horizon = window / 4, so steady-state
    // advances retract expired coverage out the back as they derive the new
    // band at the front.
    double slide_p50_s = 0.0, slide_p99_s = 0.0;
    size_t slide_intervals = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      SessionOptions options;
      options.start_time = Rational(chain.start_time);
      options.horizon = Rational(pt.window / 4);
      auto session = EngineSession::Create(program, options);
      bench::Check(session.status(), "create sliding session");
      std::vector<double> latencies_us;
      bench::Check(ReplaySessionStream(chain, session->get(), &latencies_us),
                   "sliding replay");
      double p50 = Percentile(latencies_us, 50.0) * 1e-6;
      double p99 = Percentile(latencies_us, 99.0) * 1e-6;
      if (rep == 0 || p50 < slide_p50_s) slide_p50_s = p50;
      if (rep == 0 || p99 < slide_p99_s) slide_p99_s = p99;
      slide_intervals = (*session)->db().NumIntervals();
    }

    std::printf("%16s %8d %10d | %12.1fus | %10.1fus %10.1fus %9.1fx\n",
                pt.name, pt.events, pt.window, batch_event_s * 1e6,
                p50_s * 1e6, p99_s * 1e6, speedup);
    std::printf("%16s sliding(h=%ds)          | %10.1fus %10.1fus\n", "",
                pt.window / 4, slide_p50_s * 1e6, slide_p99_s * 1e6);

    json.BeginObject()
        .Field("name", pt.name)
        .Field("events", pt.events)
        .Field("trades", pt.trades)
        .Field("window_s", pt.window)
        .Field("batch_wall_s", batch_s)
        .Field("batch_amortized_event_s", batch_event_s)
        .Field("p50_event_s", p50_s)
        .Field("p99_event_s", p99_s)
        .Field("max_event_s", max_s)
        .Field("stream_total_s", total_s)
        .Field("slide_p50_event_s", slide_p50_s)
        .Field("slide_p99_event_s", slide_p99_s)
        .Field("advances", advances)
        .Field("speedup_vs_amortized_batch", speedup)
        .Field("derived", batch_derived)
        .Field("rounds", batch_rounds)
        .Field("stream_intervals", stream_intervals)
        .Field("slide_intervals", slide_intervals)
        .EndObject();
  }
  json.EndArray();
  json.EndObject();
  bench::WriteJson("BENCH_streaming.json", json.TakeString());

  std::printf("done\n");
  return 0;
}
