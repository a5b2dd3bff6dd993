// live_window: the paper's Figure 3 row-1 shape (267 events / 59 trades /
// 7200 s, 15 s oracle ticks) replayed event by event through a streaming
// EngineSession with a 30-minute window slid explicitly after every
// advance, and a warm restart (Snapshot -> EncodeSnapshot -> DecodeSnapshot
// -> Restore) every 64 events that continues on the restored session. A
// closed loop: one feed, each event sent when the previous one returned.
// Retraction runs beside insertion, and the snapshot codec runs at sizes
// that grow and shrink with the window.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/workloads.h"
#include "src/chain/workload.h"
#include "src/engine/session.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"

namespace perfbench {
namespace {

using namespace dmtl;

// Nominal cost of one pass over a window at the time the workload was
// sized (about 15 s on a 4-vCPU x86 host, restarts included).
constexpr double kNominalPassS = 15.0;
constexpr int64_t kWindowS = 1800;
constexpr size_t kRestartEvery = 64;

// The window replayed by the run's `pass`-th pass (counted across all the
// run's processes); passes draw disjoint seeds.
WorkloadConfig LiveWindowConfig(uint64_t seed, int pass) {
  WorkloadConfig config = PaperSessions()[0];
  config.name = "live_window";
  config.seed = seed + static_cast<uint64_t>(pass) * 0x9E3779B9u;
  return config;
}

// Everything the feed sends at one chain time: price steps and method calls,
// followed by an advance to `t`.
struct Event {
  Rational t;
  std::vector<Tuple> price_steps;
  std::vector<Fact> facts;
};

struct Feed {
  Rational start;
  std::vector<Fact> initial;  // window marks and initial state
  std::vector<Event> events;
};

Feed BuildFeed(const Session& session) {
  Feed feed;
  feed.start = Rational(session.start_time);
  Rational end(session.end_time);
  feed.initial = {
      Fact::Make("start", {}, Interval::Point(feed.start)),
      Fact::Make("marketEnd", {}, Interval::Point(end)),
      Fact::Make("skew", {Value::Double(session.initial_skew)},
                 Interval::Point(feed.start)),
      Fact::Make("frs", {Value::Double(0.0)}, Interval::Point(feed.start)),
  };
  std::vector<int64_t> times;
  for (const PricePoint& p : session.prices) times.push_back(p.time);
  for (const MarketEvent& e : session.events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  size_t pi = 0, ei = 0;
  for (int64_t t : times) {
    Event ev;
    ev.t = Rational(t);
    for (; pi < session.prices.size() && session.prices[pi].time == t; ++pi) {
      ev.price_steps.push_back({Value::Double(session.prices[pi].price)});
    }
    for (; ei < session.events.size() && session.events[ei].time == t; ++ei) {
      const MarketEvent& e = session.events[ei];
      Interval at = Interval::Point(ev.t);
      Value account = Value::Symbol(e.account);
      switch (e.kind) {
        case EventKind::kTransferMargin:
          ev.facts.push_back(
              Fact::Make("tranM", {account, Value::Double(e.amount)}, at));
          break;
        case EventKind::kWithdraw:
          ev.facts.push_back(Fact::Make("withdraw", {account}, at));
          break;
        case EventKind::kModifyPosition:
          ev.facts.push_back(
              Fact::Make("modPos", {account, Value::Double(e.amount)}, at));
          break;
        case EventKind::kClosePosition:
          ev.facts.push_back(Fact::Make("closePos", {account}, at));
          break;
      }
    }
    feed.events.push_back(std::move(ev));
  }
  if (feed.events.empty() || feed.events.back().t < end) {
    Event last;
    last.t = end;
    feed.events.push_back(std::move(last));
  }
  return feed;
}

SessionOptions LiveOptions(const Feed& feed) {
  SessionOptions options;
  options.start_time = feed.start;
  return options;
}

Result<std::unique_ptr<EngineSession>> CreateLive(const Program& program,
                                                  const Feed& feed,
                                                  Trace* trace) {
  Trace::Scope span(trace, "streaming.create", -1);
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<EngineSession> session,
                        EngineSession::Create(program, LiveOptions(feed)));
  for (const Fact& fact : feed.initial) {
    DMTL_RETURN_IF_ERROR(session->Push(fact));
  }
  return session;
}

// Per-pass measurements and deterministic counts.
struct PassStats {
  double wall_s = 0.0;
  std::vector<double> event_ms;
  std::vector<double> restart_ms;
  std::vector<double> checkpoint_kb;
  std::vector<double> snapshot_ms, encode_ms, decode_ms, restore_ms;
  double checkpoint_bytes = 0.0;
  size_t derived = 0;    // from Advance stats
  size_t advances = 0;
  EngineStats eval;      // Advance and Slide stats summed
  size_t final_intervals = 0;
  double cold_ms = 0.0;  // the correctness check's cold Materialize
};

void Accumulate(const EngineStats& s, EngineStats* total) {
  total->rounds += s.rounds;
  total->derived_intervals += s.derived_intervals;
  total->delta_intervals += s.delta_intervals;
  total->memo_intersections += s.memo_intersections;
  total->memo_intersect_components += s.memo_intersect_components;
  total->memo_hits += s.memo_hits;
  total->memo_misses += s.memo_misses;
  total->vm_dispatches += s.vm_dispatches;
  total->bulk_merges += s.bulk_merges;
}

// Snapshot -> encode -> decode -> restore. Replaces *session on success.
Status Restart(const Program& program, const Feed& feed, Trace* trace,
               int64_t op, std::unique_ptr<EngineSession>* session,
               PassStats* stats) {
  Trace::Scope span(trace, "bench.restart", op);
  auto t0 = Clock::now();
  Result<SessionSnapshot> snap = [&] {
    Trace::Scope s(trace, "storage.snapshot", op);
    return (*session)->Snapshot();
  }();
  DMTL_RETURN_IF_ERROR(snap.status());
  stats->snapshot_ms.push_back(MsSince(t0));
  auto t1 = Clock::now();
  std::string text = [&] {
    Trace::Scope s(trace, "storage.encode", op);
    return EncodeSnapshot(*snap);
  }();
  stats->encode_ms.push_back(MsSince(t1));
  auto t2 = Clock::now();
  Result<SessionSnapshot> decoded = [&] {
    Trace::Scope s(trace, "storage.decode", op);
    return DecodeSnapshot(text);
  }();
  DMTL_RETURN_IF_ERROR(decoded.status());
  stats->decode_ms.push_back(MsSince(t2));
  auto t3 = Clock::now();
  Result<std::unique_ptr<EngineSession>> restored = [&] {
    Trace::Scope s(trace, "engine.restore", op);
    return EngineSession::Restore(program, LiveOptions(feed), *decoded);
  }();
  DMTL_RETURN_IF_ERROR(restored.status());
  stats->restore_ms.push_back(MsSince(t3));
  *session = std::move(restored).value();
  stats->checkpoint_bytes += static_cast<double>(text.size());
  stats->checkpoint_kb.push_back(static_cast<double>(text.size()) / 1024.0);
  stats->restart_ms.push_back(MsSince(t0));
  return Status::Ok();
}

// One live event: pushes, advance, slide.
Status Step(const Event& ev, EngineSession* session, Trace* trace, int64_t op,
            PassStats* stats) {
  static const PredicateId kPrice = InternPredicate("price");
  Trace::Scope span(trace, "bench.event", op);
  {
    Trace::Scope s(trace, "streaming.push", op);
    for (const Tuple& price : ev.price_steps) {
      DMTL_RETURN_IF_ERROR(session->PushStep(kPrice, price, ev.t));
    }
    for (const Fact& fact : ev.facts) {
      DMTL_RETURN_IF_ERROR(session->Push(fact));
    }
  }
  EngineStats adv;
  {
    Trace::Scope s(trace, "streaming.advance", op);
    DMTL_RETURN_IF_ERROR(session->Advance(ev.t, &adv));
  }
  ++stats->advances;
  stats->derived += adv.derived_intervals;
  Accumulate(adv, &stats->eval);
  Rational new_min = ev.t - Rational(kWindowS);
  if (session->window_min() < new_min) {
    EngineStats slide;
    Trace::Scope s(trace, "streaming.slide", op);
    DMTL_RETURN_IF_ERROR(session->Slide(new_min, &slide));
    Accumulate(slide, &stats->eval);
  }
  return Status::Ok();
}

// The correctness gate: the final database must be byte-identical to one
// cold Materialize over the logged inputs on [window_min, watermark]. It
// covers every slide and every restore of the pass.
void CheckAgainstCold(const Program& program, const EngineSession& session,
                      Trace* trace, PassStats* stats, RunResult* result) {
  Database cold;
  for (const Fact& f : session.input_log()) {
    cold.InsertSet(f.predicate, f.args, IntervalSet(f.interval));
  }
  EngineOptions options;
  options.min_time = session.window_min();
  options.max_time = session.watermark();
  auto t0 = Clock::now();
  Status run = [&] {
    Trace::Scope s(trace, "eval.materialize", -1);
    return Materialize(program, &cold, options);
  }();
  stats->cold_ms = MsSince(t0);
  if (!result->Expect(run, "cold materialize")) return;
  if (SerializeDatabase(session.db()) != SerializeDatabase(cold)) {
    result->Fail("live window diverged from its cold materialization");
  }
}

// Replays the feed (or its first `limit` events) on `session`, calling
// `pause` untimed before every restart interval.
PassStats RunPass(const Program& program, const Feed& feed,
                  std::unique_ptr<EngineSession> session, size_t limit,
                  Trace* trace, const std::function<void()>& pause,
                  RunResult* result) {
  PassStats stats;
  const size_t n = std::min(limit, feed.events.size());
  for (size_t i = 0; i < n; ++i) {
    if (i % kRestartEvery == 0) pause();
    auto t0 = Clock::now();
    Status s = Step(feed.events[i], session.get(), trace,
                    static_cast<int64_t>(i), &stats);
    const double ms = MsSince(t0);
    stats.wall_s += ms / 1000.0;
    stats.event_ms.push_back(ms);
    ++result->attempted;
    if (!result->Expect(s, "live event")) return stats;
    if ((i + 1) % kRestartEvery == 0 && i + 1 < n) {
      auto r0 = Clock::now();
      Status r = Restart(program, feed, trace, static_cast<int64_t>(i),
                         &session, &stats);
      stats.wall_s += MsSince(r0) / 1000.0;
      ++result->attempted;
      if (!result->Expect(r, "warm restart")) return stats;
    }
  }
  stats.final_intervals = session->db().NumIntervals();
  CheckAgainstCold(program, *session, trace, &stats, result);
  return stats;
}

}  // namespace

RunResult RunLiveWindow(const RunConfig& config) {
  RunResult result;
  Trace trace(config.trace);
  const int passes = std::max(
      1, static_cast<int>(std::lround(config.seconds / kNominalPassS)));

  // One setup: parse, stratify, generate one feed per pass (each pass
  // replays a window of its own, drawn from the run seed), create the first
  // live session.
  std::vector<double> setup_ms, parse_ms, stratify_ms, generate_ms;
  auto setup = [&](Program* program, std::vector<Feed>* feeds,
                   std::unique_ptr<EngineSession>* first) -> Status {
    auto t0 = Clock::now();
    DMTL_ASSIGN_OR_RETURN(ParsedProgram parsed, ParseEthPerp(&trace));
    auto g0 = Clock::now();
    feeds->clear();
    for (int p = 0; p < passes; ++p) {
      Result<Session> generated = [&] {
        Trace::Scope span(&trace, "chain.generate", -1);
        return GenerateSession(
            LiveWindowConfig(config.seed, config.part * passes + p));
      }();
      DMTL_RETURN_IF_ERROR(generated.status());
      feeds->push_back(BuildFeed(*generated));
    }
    generate_ms.push_back(MsSince(g0));
    DMTL_ASSIGN_OR_RETURN(*first,
                          CreateLive(parsed.program, feeds->front(), &trace));
    setup_ms.push_back(MsSince(t0));
    parse_ms.push_back(parsed.parse_ms);
    stratify_ms.push_back(parsed.stratify_ms);
    *program = std::move(parsed.program);
    return Status::Ok();
  };
  Program program;
  std::vector<Feed> feeds;
  std::unique_ptr<EngineSession> first;
  for (int rep = 0; rep < kFirstSetupReps; ++rep) {
    if (!result.Expect(setup(&program, &feeds, &first), "setup")) {
      return result;
    }
  }

  // Between restart intervals: reference-kernel samples and a setup batch.
  HostRef host(config.trace);
  auto pause = [&] {
    const bool traced = trace.enabled();
    trace.set_enabled(false);
    host.Sample(kRefSamples);
    SetupBatch(
        [&] {
          Program p;
          std::vector<Feed> f;
          std::unique_ptr<EngineSession> s;
          return setup(&p, &f, &s);
        },
        &result);
    trace.set_enabled(traced);
  };

  // Untimed warm-up: the first restart interval and one restart on a
  // throwaway session.
  trace.set_enabled(false);
  {
    auto warm = CreateLive(program, feeds[0], &trace);
    if (!result.Expect(warm.status(), "warm-up session")) return result;
    RunResult scratch;
    RunPass(program, feeds[0], std::move(warm).value(), kRestartEvery + 1,
            &trace, [] {}, &scratch);
    if (!scratch.correct()) {
      result.Fail("warm-up: " + scratch.errors.front());
      return result;
    }
  }

  // Timed passes, untraced for the end-to-end figures. With --trace each
  // pass has a traced twin. Every pass but the first untraced one creates its
  // session inside the timed work.
  std::vector<PassStats> untraced, traced;
  for (int p = 0; p < passes; ++p) {
    for (int mode : ModeOrder(config.trace, p)) {
      trace.set_enabled(mode == 1);
      const Feed& feed = feeds[static_cast<size_t>(p)];
      double create_s = 0.0;
      std::unique_ptr<EngineSession> session;
      if (mode == 0 && p == 0) {
        session = std::move(first);
      } else {
        auto t0 = Clock::now();
        auto created = CreateLive(program, feed, &trace);
        create_s = MsSince(t0) / 1000.0;
        if (!result.Expect(created.status(), "create session")) return result;
        session = std::move(created).value();
      }
      PassStats stats = RunPass(program, feed, std::move(session),
                                feed.events.size(), &trace, pause, &result);
      stats.wall_s += create_s;
      (mode == 0 ? untraced : traced).push_back(std::move(stats));
    }
  }

  // Deterministic counts: a traced pass must repeat its untraced twin.
  for (size_t p = 0; p < traced.size(); ++p) {
    if (traced[p].checkpoint_bytes != untraced[p].checkpoint_bytes ||
        traced[p].derived != untraced[p].derived ||
        traced[p].final_intervals != untraced[p].final_intervals) {
      result.Fail("deterministic counts changed between passes");
    }
  }

  double wall_s = 0.0, checkpoint_bytes = 0.0;
  size_t derived = 0, advances = 0, final_intervals = 0;
  std::vector<double> event_ms, checkpoint_kb;
  EngineStats eval;
  for (const PassStats& p : untraced) {
    wall_s += p.wall_s;
    checkpoint_bytes += p.checkpoint_bytes;
    derived += p.derived;
    advances += p.advances;
    final_intervals += p.final_intervals;
    event_ms.insert(event_ms.end(), p.event_ms.begin(), p.event_ms.end());
    checkpoint_kb.insert(checkpoint_kb.end(), p.checkpoint_kb.begin(),
                         p.checkpoint_kb.end());
    Accumulate(p.eval, &eval);
  }
  result.E2E("setup_s", Median(setup_ms) / 1000.0, "s");
  result.E2E("wall_s", wall_s, "s");
  result.E2E("op_mean_ms", Mean(event_ms), "ms");
  result.E2E("peak_rss_mb", PeakRssMb(), "MB");
  ReportHost(&result, host);

  result.counts["storage.checkpoint_bytes"] = checkpoint_bytes;
  result.counts["eval.derived_intervals"] = static_cast<double>(derived);
  result.counts["streaming.final_intervals"] =
      static_cast<double>(final_intervals);

  if (config.trace) {
    double traced_wall_s = 0.0;
    std::vector<double> cold_ms, snapshot_ms, encode_ms, decode_ms, restore_ms,
        traced_restart_ms;
    for (const PassStats& p : traced) {
      traced_wall_s += p.wall_s;
      cold_ms.push_back(p.cold_ms);
      auto append = [](std::vector<double>* to, const std::vector<double>& v) {
        to->insert(to->end(), v.begin(), v.end());
      };
      append(&snapshot_ms, p.snapshot_ms);
      append(&encode_ms, p.encode_ms);
      append(&decode_ms, p.decode_ms);
      append(&restore_ms, p.restore_ms);
      append(&traced_restart_ms, p.restart_ms);
    }
    ReportCommonLayers(&result, trace, parse_ms, stratify_ms, generate_ms,
                       host, wall_s, traced_wall_s);
    const auto& spans = trace.spans();
    result.Layer("op.p50_ms", Median(event_ms), "ms");
    result.Layer("op.tail_ms", TailPercentile(event_ms), "ms");
    result.Layer("streaming.create_ms",
                 Median(DurationsMs(spans, "streaming.create")), "ms");
    result.Layer("streaming.push_p50_ms",
                 Median(DurationsMs(spans, "streaming.push")), "ms");
    result.Layer("streaming.push_tail_ms",
                 TailPercentile(DurationsMs(spans, "streaming.push")), "ms");
    result.Layer("streaming.advance_p50_ms",
                 Median(DurationsMs(spans, "streaming.advance")), "ms");
    result.Layer("streaming.advance_tail_ms",
                 TailPercentile(DurationsMs(spans, "streaming.advance")), "ms");
    result.Layer("streaming.slide_p50_ms",
                 Median(DurationsMs(spans, "streaming.slide")), "ms");
    result.Layer("streaming.slide_tail_ms",
                 TailPercentile(DurationsMs(spans, "streaming.slide")), "ms");
    result.Layer("engine.restart_ms", Mean(traced_restart_ms), "ms");
    result.Layer("storage.snapshot_ms", Mean(snapshot_ms), "ms");
    result.Layer("storage.encode_ms", Mean(encode_ms), "ms");
    result.Layer("storage.decode_ms", Mean(decode_ms), "ms");
    result.Layer("engine.restore_ms", Mean(restore_ms), "ms");
    result.Layer("storage.checkpoint_mb", checkpoint_bytes / 1e6, "MB");
    result.Layer("storage.checkpoint_kb_p50", Median(checkpoint_kb), "KB");
    result.Layer("storage.checkpoint_kb_max", Max(checkpoint_kb), "KB");
    result.Layer("eval.materialize_ms", Median(cold_ms), "ms");
    result.Layer("eval.derived_per_event",
                 static_cast<double>(derived) / static_cast<double>(advances),
                 "count");
    ReportEvalCounts(&result, eval);
  }
  return result;
}

}  // namespace perfbench
