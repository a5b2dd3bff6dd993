// Tests for the perfbench measurement helpers (perfbench/harness.h). Plain
// checks with a nonzero exit on failure; run.py runs this before every
// workload.
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/harness.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (false)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::Percentile;
  // Nearest rank: p50 of 1..10 is the 5th value, p99 of 1..1000 the 990th.
  EXPECT(Near(*Percentile(OneTo(10), 50.0, 0), 5.0));
  EXPECT(Near(*Percentile(OneTo(1000), 99.0), 990.0));
  EXPECT(Near(*Percentile(OneTo(7), 100.0, 0), 7.0));
  // p99 needs ten samples beyond its rank: 999 samples leave only nine.
  EXPECT(!Percentile(OneTo(999), 99.0).has_value());
  EXPECT(!Percentile(OneTo(50), 90.0).has_value());
  EXPECT(Percentile(OneTo(100), 90.0).has_value());
  EXPECT(!Percentile({}, 50.0, 0).has_value());
  EXPECT(!Percentile(OneTo(10), 0.0, 0).has_value());
  EXPECT(Near(perfbench::Median(OneTo(7)), 4.0));
  EXPECT(Near(perfbench::Median(OneTo(6)), 3.0));
  EXPECT(Near(perfbench::Max(OneTo(6)), 6.0));
  EXPECT(Near(perfbench::Max({}), 0.0));
  // The tail: p99 when it has ten samples beyond, else the 11th largest.
  EXPECT(Near(perfbench::TailPercentile(OneTo(1000)), 990.0));
  EXPECT(Near(perfbench::TailPercentile(OneTo(727)), 717.0));
  EXPECT(Near(perfbench::TailPercentile(OneTo(11)), 1.0));
  EXPECT(Near(perfbench::TailPercentile(OneTo(10)), 0.0));
}

perfbench::Span MakeSpan(const char* name, double start, double end,
                         int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  using perfbench::Span;
  // op [0,100] with children [10,30] and [20,50] (overlapping, so 40 us
  // covered) and [90,120] (clipped to 10 us); the first child has a
  // grandchild [12,18].
  std::vector<Span> spans = {
      MakeSpan("bench.op", 0, 100, -1),
      MakeSpan("eval.materialize", 10, 30, 0),
      MakeSpan("eval.materialize", 20, 50, 0),
      MakeSpan("contracts.extract", 90, 120, 0),
      MakeSpan("storage.encode", 12, 18, 1),
  };
  std::vector<double> self = perfbench::SelfTimesUs(spans);
  EXPECT(Near(self[0], 100 - 40 - 10));
  EXPECT(Near(self[1], 20 - 6));
  EXPECT(Near(self[2], 30));
  EXPECT(Near(self[3], 30));
  EXPECT(Near(self[4], 6));
  auto layers = perfbench::LayerSelfMs(spans);
  EXPECT(Near(layers["bench"], 0.050));
  EXPECT(Near(layers["eval"], 0.044));
  EXPECT(Near(layers["storage"], 0.006));
  // Self times add up to the top-level span when children stay inside it.
  std::vector<Span> nested = {MakeSpan("bench.op", 0, 100, -1),
                              MakeSpan("eval.materialize", 10, 60, 0),
                              MakeSpan("chain.inputs", 60, 70, 0)};
  double total = 0;
  for (double s : perfbench::SelfTimesUs(nested)) total += s;
  EXPECT(Near(total, 100));
  EXPECT(Near(perfbench::DurationsMs(nested, "chain.inputs")[0], 0.010));

  // The recorder nests spans by call order and records nothing when off.
  perfbench::Trace trace(true);
  {
    perfbench::Trace::Scope outer(&trace, "bench.op", 3);
    perfbench::Trace::Scope inner(&trace, "eval.materialize", 3);
  }
  trace.set_enabled(false);
  { perfbench::Trace::Scope off(&trace, "bench.op", 4); }
  EXPECT(trace.spans().size() == 2);
  EXPECT(trace.spans()[1].parent == 0);
  EXPECT(trace.spans()[1].op == 3);
  EXPECT(trace.spans()[0].end_us >= trace.spans()[1].end_us);
}

dmtl::SessionReport Report(const char* shard, size_t advances) {
  dmtl::SessionReport r;
  r.key = dmtl::SessionKey{"p", 0, shard};
  r.advances = advances;
  r.derived_intervals = 10 * advances;
  r.snapshots_taken = advances > 0 ? 1 : 0;
  for (size_t i = 0; i < advances; ++i) {
    r.advance_latencies_us.push_back(static_cast<double>(i));
  }
  return r;
}

void TestFleetRounds() {
  // Round 2 reports are cumulative: they already contain round 1's work.
  std::vector<std::vector<dmtl::SessionReport>> rounds = {
      {Report("a", 3), Report("b", 4)},
      {Report("a", 5), Report("b", 9)},
  };
  auto totals = perfbench::SummarizeFleetRounds(rounds);
  EXPECT(totals.ok());
  EXPECT(totals->sessions == 2);
  EXPECT(totals->advances == 14);  // not 3 + 4 + 5 + 9 = 21
  EXPECT(totals->advance_latencies_us.size() == 14);
  EXPECT(totals->derived_intervals == 140);
  EXPECT(totals->failed == 0 && totals->retried == 0);

  // A counter that went backwards means the reports are not cumulative.
  rounds[1][0] = Report("a", 2);
  EXPECT(!perfbench::SummarizeFleetRounds(rounds).ok());
  // Rounds must report the same sessions in the same order.
  rounds[1] = {Report("b", 9), Report("a", 5)};
  EXPECT(!perfbench::SummarizeFleetRounds(rounds).ok());
  rounds[1] = {Report("a", 5)};
  EXPECT(!perfbench::SummarizeFleetRounds(rounds).ok());

  // Failures and retries are read from the final round.
  rounds[1] = {Report("a", 5), Report("b", 9)};
  rounds[1][1].retried = true;
  rounds[1][1].status = dmtl::Status::Internal("boom");
  totals = perfbench::SummarizeFleetRounds(rounds);
  EXPECT(totals.ok() && totals->failed == 1 && totals->retried == 1);
}

void TestRefKernel() {
  double us = perfbench::RefKernelUs();
  EXPECT(us > 0.0 && us < 1e6);
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestFleetRounds();
  TestRefKernel();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench helpers: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench helpers: all checks passed\n");
  return 0;
}
