// Measurement helpers shared by the perfbench workloads: nearest-rank
// percentiles that refuse thin tails, an in-memory span recorder with
// self-time arithmetic, fleet report summarisation across Drain rounds, the
// host reference kernel, and the metric sheet a workload run fills in.
// Everything here is header-only so perfbench_helpers_test can cover it
// without the workloads.
#ifndef DMTL_PERFBENCH_HARNESS_H_
#define DMTL_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Percentiles

// Nearest-rank percentile (p in (0, 100]): the smallest sample with at least
// p% of the samples at or below it. Refuses (nullopt) when fewer than
// `min_beyond` samples lie above that rank, so a tail figure never rests on
// a handful of points: p99 needs at least 1000 samples at the default.
inline std::optional<double> Percentile(std::vector<double> samples, double p,
                                        size_t min_beyond = 10) {
  if (samples.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

// The tail figure of a run: p99 when at least ten samples lie beyond it,
// otherwise the highest nearest-rank sample that still leaves ten above it
// (the 11th largest). 0 when there are not eleven samples.
inline double TailPercentile(std::vector<double> samples) {
  constexpr size_t kBeyond = 10;
  if (auto p99 = Percentile(samples, 99.0, kBeyond)) return *p99;
  if (samples.size() <= kBeyond) return 0.0;
  const size_t rank = samples.size() - kBeyond;
  return *Percentile(std::move(samples),
                     100.0 * static_cast<double>(rank) /
                         static_cast<double>(samples.size()),
                     kBeyond);
}

// Nearest-rank median of a non-empty sample (0 for an empty one).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0, 0).value_or(0.0);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

// Largest sample (0 for an empty one, so a run that failed before sampling
// still reports its errors).
inline double Max(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return *std::max_element(samples.begin(), samples.end());
}

// ---------------------------------------------------------------------------
// Spans

// One timed call into a layer, recorded by the benchmark around a public
// function. `name` is "<layer>.<call>" and must be a string literal.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  int64_t op = -1;  // the workload op the span belongs to, -1 for none
};

// In-memory span recorder for a single-threaded caller. Spans nest by call
// order; nothing is written until the run ends. A disabled trace records
// nothing and costs one branch per scope.
class Trace {
 public:
  explicit Trace(bool enabled = false)
      : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Closes the span when it goes out of scope.
  class Scope {
   public:
    Scope(Trace* trace, const char* name, int64_t op)
        : trace_(trace), id_(trace->Begin(name, op)) {}
    ~Scope() { trace_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int id_;
  };

  int Begin(const char* name, int64_t op) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.start_us = NowUs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span: its duration minus the part of its interval that
// its child spans cover (children are clipped to the parent and their
// overlaps counted once).
inline std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back(
          {s.start_us, s.end_us});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;  // current merged child interval
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

// The layer a span belongs to: its name up to the first '.'.
inline std::string_view LayerOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

// Self time summed per layer, in milliseconds.
inline std::map<std::string, double> LayerSelfMs(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  std::vector<double> self = SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    out[std::string(LayerOf(spans[i].name))] += self[i] / 1000.0;
  }
  return out;
}

// Durations (ms) of every span named `name`, in recording order.
inline std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                       std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fleet reports

// Totals over a fleet driven through several Enqueue+Drain rounds.
struct FleetTotals {
  size_t sessions = 0;
  size_t failed = 0;   // sessions whose final status is not ok
  size_t retried = 0;  // sessions that needed the degraded warm restart
  size_t advances = 0;
  size_t derived_intervals = 0;
  size_t snapshots = 0;
  size_t ops_replayed = 0;
  std::vector<double> advance_latencies_us;  // every advance, once
};

// SessionReport fields accumulate across Drain calls: the final round's
// reports already hold every earlier round's work, so only they are summed
// (concatenating rounds would count round 1's advances twice). Earlier
// rounds are read only to check that each session's counters never went
// backwards.
inline dmtl::Result<FleetTotals> SummarizeFleetRounds(
    const std::vector<std::vector<dmtl::SessionReport>>& rounds) {
  FleetTotals totals;
  if (rounds.empty()) return totals;
  const auto& last = rounds.back();
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (rounds[r].size() != last.size()) {
      return dmtl::Status::InvalidArgument(
          "fleet rounds report different session counts");
    }
    for (size_t i = 0; i < last.size(); ++i) {
      const dmtl::SessionReport& now = rounds[r][i];
      if (!(now.key == last[i].key)) {
        return dmtl::Status::InvalidArgument("fleet report order changed");
      }
      size_t before = r == 0 ? 0 : rounds[r - 1][i].advances;
      if (now.advances < before ||
          now.advance_latencies_us.size() != now.advances) {
        return dmtl::Status::InvalidArgument(
            "fleet report is not cumulative: " + now.key.ToString());
      }
    }
  }
  totals.sessions = last.size();
  for (const dmtl::SessionReport& report : last) {
    if (!report.ok()) ++totals.failed;
    if (report.retried) ++totals.retried;
    totals.advances += report.advances;
    totals.derived_intervals += report.derived_intervals;
    totals.snapshots += report.snapshots_taken;
    totals.ops_replayed += report.ops_replayed;
    totals.advance_latencies_us.insert(totals.advance_latencies_us.end(),
                                       report.advance_latencies_us.begin(),
                                       report.advance_latencies_us.end());
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Host reference kernel

// A fixed xorshift loop of about 0.1 ms on a current x86 core, timed between
// workload ops. Its median reads the machine's speed during the run, so a
// shift between two sets of runs can be told apart from a code change.
inline double RefKernelUs() {
  static volatile uint64_t sink = 0;
  auto t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull ^ sink;
  for (int i = 0; i < 40000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// A fixed pointer chase (20k dependent loads) over a 64 MB single-cycle
// permutation, built on first use. It reads the host's memory latency,
// which moves with other tenants' load on a shared machine while the ALU
// kernel stays flat; the eval, streaming and snapshot layers are bound by it.
inline double MemRefKernelUs() {
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> v(16u << 20);
    for (uint32_t i = 0; i < v.size(); ++i) v[i] = i;
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (size_t i = v.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  static volatile uint32_t sink = 0;
  auto t0 = Clock::now();
  uint32_t p = sink;
  for (int i = 0; i < 20000; ++i) p = next[p];
  sink = p;
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Reference-kernel samples taken between workload ops. The memory kernel
// holds 64 MB, so it only runs when asked (traced runs), keeping it out of
// the untraced runs' peak RSS.
class HostRef {
 public:
  explicit HostRef(bool with_memory) : with_memory_(with_memory) {}

  void Sample(int count) {
    for (int i = 0; i < count; ++i) {
      alu_us_.push_back(RefKernelUs());
      if (with_memory_) mem_us_.push_back(MemRefKernelUs());
    }
  }
  const std::vector<double>& alu_us() const { return alu_us_; }
  const std::vector<double>& mem_us() const { return mem_us_; }

 private:
  bool with_memory_;
  std::vector<double> alu_us_;
  std::vector<double> mem_us_;
};

// Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports: end-to-end metrics (untraced), per-layer
// metrics (traced run only), the host readings taken between its ops (every
// run, printed beside the gated metrics), the deterministic counts run.py
// compares across runs, and the correctness verdict.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> host;
  std::map<std::string, double> counts;

  bool correct() const { return failed == 0 && errors.empty(); }

  // A failure is an attempt too: one in setup or warm-up, before any timed
  // op, still counts as attempted.
  void Fail(std::string what) {
    ++failed;
    if (attempted < failed) attempted = failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  // Records a failed status; returns whether it was ok.
  bool Expect(const dmtl::Status& status, const char* what) {
    if (status.ok()) return true;
    Fail(std::string(what) + ": " + status.ToString());
    return false;
  }
  void E2E(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

}  // namespace perfbench

#endif  // DMTL_PERFBENCH_HARNESS_H_
