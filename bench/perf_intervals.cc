// Experiment E6 - the paper's Section 4.2 performance paragraph: the
// materialization wall-clock for the three 2-hour sessions. The paper's
// claim is a *shape* claim - the runtime must be much smaller than the
// simulated interval, confirming a contract could realistically live in a
// reasoner. (Absolute numbers differ: the paper ran Vadalog on a JVM
// laptop; this is a purpose-built C++ engine.)

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace dmtl;
  std::printf("=== Section 4.2: runtime per 2-hour session ===\n");
  std::printf("%-26s %10s %12s %14s %12s\n", "session", "events",
              "runtime (s)", "interval (s)", "runtime/ivl");
  const double paper_runtimes[] = {1140.0, 540.0, 420.0};
  size_t i = 0;
  bool all_faster_than_real_time = true;
  for (const WorkloadConfig& config : PaperSessions()) {
    bench::ExecutedSession run = bench::Execute(config);
    double runtime = run.stats.wall_seconds;
    double interval = static_cast<double>(run.session.duration());
    std::printf("%-26s %10zu %12.3f %14.0f %12.5f\n",
                run.session.name.c_str(), run.session.events.size(), runtime,
                interval, runtime / interval);
    std::printf("    engine: %s\n", run.stats.ToString().c_str());
    std::printf("    paper (Vadalog): %.0f s -> ratio %.3f\n",
                paper_runtimes[i], paper_runtimes[i] / interval);
    all_faster_than_real_time &= runtime < interval;
    ++i;
  }
  std::printf("\npaper-shape check (runtime << interval for all sessions): "
              "%s\n",
              all_faster_than_real_time ? "PASS" : "FAIL");
  return 0;
}
