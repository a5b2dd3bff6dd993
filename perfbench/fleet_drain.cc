// fleet_drain: account-shard ETH-PERP sessions in the bench/fleet.cc shape
// (10-minute windows, 4 orders, 1 trade, 150 s oracle ticks) hosted on a
// FleetServer with one scheduler worker per two hardware threads and
// passivate_drained on. The timed work is kShifts fleets of ~750 sessions
// (on 4 hardware threads) in turn. Each session's ops are fed in two
// Enqueue+Drain rounds split at an advance, so round 2 reactivates every
// session warm from its passivation checkpoint. A closed loop: one client
// enqueues a round and waits on Drain. The scheduler, per-session create
// and compile, and checkpoint passivation and reactivation do most of the
// work here.
#include <algorithm>
#include <cmath>
#include <string>

#include "perfbench/workloads.h"
#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/common/thread_pool.h"
#include "src/fleet/workload.h"
#include "src/storage/serialize.h"
#include "src/storage/snapshot.h"
#include "src/validation/parallel_sessions.h"

namespace perfbench {
namespace {

using namespace dmtl;

// Nominal session throughput per scheduler worker at the time the workload
// was sized (about 50 sessions per second through both rounds on a 4-vCPU
// x86 host).
constexpr double kNominalSessionsPerWorkerS = 50.0;
// The timed work is kShifts fleets of equal size, one after the other.
constexpr int kShifts = 4;
constexpr int kMinShiftSessions = 64;
constexpr int kWarmupSessions = 64;
// Sessions per shift restored from Checkpoint(key) and compared to a cold
// batch.
constexpr int kCheckedPerShift = 2;
constexpr char kProgram[] = "eth-perp";

WorkloadConfig FleetBaseConfig(uint64_t seed) {
  WorkloadConfig config;
  config.name = "fleet_drain";
  config.duration_s = 600;
  config.num_events = 4;
  config.num_trades = 1;
  config.price.update_interval_s = 150;
  config.seed = seed;
  return config;
}

// One hosted session's inputs, its ops split into two rounds right after
// the advance nearest the middle of the schedule.
struct Shard {
  SessionKey key;
  Session session;
  std::vector<FleetOp> rounds[2];
};

// Shards [begin, begin + count) of the run's shard sequence.
Result<std::vector<Shard>> GenerateShards(uint64_t seed, int begin,
                                          int count) {
  std::vector<WorkloadConfig> configs =
      ShardConfigs(FleetBaseConfig(seed), begin + count);
  std::vector<Shard> shards;
  shards.reserve(static_cast<size_t>(count));
  for (int c = begin; c < begin + count; ++c) {
    const WorkloadConfig& config = configs[static_cast<size_t>(c)];
    Shard shard;
    shard.key = SessionKey{kProgram, 0, config.name};
    DMTL_ASSIGN_OR_RETURN(shard.session, GenerateSession(config));
    std::vector<FleetOp> ops = SessionToOps(shard.session);
    size_t split = 0;  // one past the advance closest to the middle
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != FleetOp::Kind::kAdvance) continue;
      const size_t cut = i + 1;
      auto dist = [&](size_t c) {
        return c > ops.size() / 2 ? c - ops.size() / 2 : ops.size() / 2 - c;
      };
      if (split == 0 || dist(cut) < dist(split)) split = cut;
    }
    shard.rounds[0].assign(ops.begin(), ops.begin() + split);
    shard.rounds[1].assign(ops.begin() + split, ops.end());
    shards.push_back(std::move(shard));
  }
  return shards;
}

// Half the hardware threads. With one worker per hardware thread any other
// thread on the host, or a hyperthread sibling's load, time-slices a worker
// and inflates the advances it runs: on a shared 4-vCPU host that moved
// op_mean_ms by 0.26 (IQR / median over ten runs) against about 0.1 with
// two workers, whose peak RSS also varied a quarter as much.
size_t FleetWorkers() {
  return std::max<size_t>(1, ThreadPool::ResolveThreads(0) / 2);
}

FleetOptions DrainOptions() {
  FleetOptions options;
  options.num_threads = static_cast<int>(FleetWorkers());
  options.ops_per_slice = 64;
  options.passivate_drained = true;
  return options;
}

// Creates the server and opens every shard with its round-1 ops queued.
Result<std::unique_ptr<FleetServer>> OpenFleet(const Program& program,
                                              const std::vector<Shard>& shards,
                                              Trace* trace) {
  Trace::Scope span(trace, "fleet.open", -1);
  DMTL_ASSIGN_OR_RETURN(std::unique_ptr<FleetServer> server,
                        FleetServer::Create(DrainOptions()));
  DMTL_RETURN_IF_ERROR(server->RegisterProgram(kProgram, program));
  for (const Shard& shard : shards) {
    DMTL_RETURN_IF_ERROR(
        server->Open(shard.key, Rational(shard.session.start_time)));
    DMTL_RETURN_IF_ERROR(server->Enqueue(shard.key, shard.rounds[0]));
  }
  return server;
}

struct DrainRun {
  double drain_s[2] = {0.0, 0.0};
  double enqueue_s = 0.0;
  double wall_s = 0.0;
  std::vector<std::vector<SessionReport>> rounds;
};

// Round 1 drain, round 2 enqueue, round 2 drain: the timed work.
Status DrainTwice(FleetServer* server, const std::vector<Shard>& shards,
                  Trace* trace, HostRef* host, DrainRun* run) {
  for (int round = 0; round < 2; ++round) {
    host->Sample(4 * kRefSamples);
    if (round == 1) {
      auto t0 = Clock::now();
      Trace::Scope span(trace, "fleet.enqueue", -1);
      for (const Shard& shard : shards) {
        DMTL_RETURN_IF_ERROR(server->Enqueue(shard.key, shard.rounds[1]));
      }
      run->enqueue_s = MsSince(t0) / 1000.0;
    }
    auto t0 = Clock::now();
    Result<std::vector<SessionReport>> reports = [&] {
      Trace::Scope span(trace, round == 0 ? "fleet.drain_first"
                                          : "fleet.drain_resume",
                        round);
      return server->Drain();
    }();
    run->drain_s[round] = MsSince(t0) / 1000.0;
    DMTL_RETURN_IF_ERROR(reports.status());
    run->rounds.push_back(std::move(reports).value());
  }
  host->Sample(4 * kRefSamples);
  run->wall_s = run->drain_s[0] + run->enqueue_s + run->drain_s[1];
  return Status::Ok();
}

// The batch twin of one session: a cold materialization over its database.
std::string BatchText(const Program& program, const Session& session,
                      Trace* trace) {
  Database db = SessionToDatabase(session);
  Trace::Scope span(trace, "eval.materialize", -1);
  Status run = Materialize(program, &db, SessionEngineOptions(session));
  return run.ok() ? SerializeDatabase(db) : "materialize failed: " +
                                                run.ToString();
}

struct SampleCheck {
  double checkpoint_bytes = 0.0;
  std::vector<double> checkpoint_kb, checkpoint_ms, encode_ms, decode_ms,
      restore_ms, materialize_ms;
};

// Restores a fixed sample of the fleet's sessions from Checkpoint(key)
// through the snapshot codec and compares each with its cold batch twin.
void CheckSample(const Program& program, FleetServer* server,
                 const std::vector<Shard>& shards, Trace* trace,
                 SampleCheck* out, RunResult* result) {
  const size_t stride = std::max<size_t>(1, shards.size() / kCheckedPerShift);
  for (size_t i = stride / 2; i < shards.size(); i += stride) {
    const Shard& shard = shards[i];
    auto t0 = Clock::now();
    Result<SessionSnapshot> snap = [&] {
      Trace::Scope span(trace, "storage.checkpoint", -1);
      return server->Checkpoint(shard.key);
    }();
    out->checkpoint_ms.push_back(MsSince(t0));
    if (!result->Expect(snap.status(), "checkpoint")) continue;
    t0 = Clock::now();
    std::string text = [&] {
      Trace::Scope span(trace, "storage.encode", -1);
      return EncodeSnapshot(*snap);
    }();
    out->encode_ms.push_back(MsSince(t0));
    out->checkpoint_bytes += static_cast<double>(text.size());
    out->checkpoint_kb.push_back(static_cast<double>(text.size()) / 1024.0);
    t0 = Clock::now();
    Result<SessionSnapshot> decoded = [&] {
      Trace::Scope span(trace, "storage.decode", -1);
      return DecodeSnapshot(text);
    }();
    out->decode_ms.push_back(MsSince(t0));
    if (!result->Expect(decoded.status(), "decode checkpoint")) continue;
    SessionOptions options;
    options.start_time = Rational(shard.session.start_time);
    t0 = Clock::now();
    Result<std::unique_ptr<EngineSession>> restored = [&] {
      Trace::Scope span(trace, "engine.restore", -1);
      return EngineSession::Restore(program, options, *decoded);
    }();
    out->restore_ms.push_back(MsSince(t0));
    if (!result->Expect(restored.status(), "restore checkpoint")) continue;
    t0 = Clock::now();
    std::string cold = BatchText(program, shard.session, trace);
    out->materialize_ms.push_back(MsSince(t0));
    if (SerializeDatabase((*restored)->db()) != cold) {
      result->Fail("fleet session " + shard.key.ToString() +
                   " diverged from its cold batch");
    }
  }
}

void Accumulate(const FleetTotals& shift, FleetTotals* total) {
  total->sessions += shift.sessions;
  total->failed += shift.failed;
  total->retried += shift.retried;
  total->advances += shift.advances;
  total->derived_intervals += shift.derived_intervals;
  total->snapshots += shift.snapshots;
  total->ops_replayed += shift.ops_replayed;
  total->advance_latencies_us.insert(total->advance_latencies_us.end(),
                                     shift.advance_latencies_us.begin(),
                                     shift.advance_latencies_us.end());
}

// Every session must finish ok on its first attempt.
void CheckReports(const FleetTotals& totals, RunResult* result) {
  if (totals.failed > 0 || totals.retried > 0) {
    result->Fail(std::to_string(totals.failed) + " sessions failed, " +
                 std::to_string(totals.retried) + " retried");
  }
}

}  // namespace

RunResult RunFleetDrain(const RunConfig& config) {
  RunResult result;
  Trace trace(config.trace);
  const size_t workers = FleetWorkers();
  const int per_shift = std::max(
      kMinShiftSessions,
      static_cast<int>(std::lround(config.seconds * kNominalSessionsPerWorkerS *
                                   static_cast<double>(workers) / kShifts)));
  std::vector<double> setup_ms, parse_ms, stratify_ms, generate_ms, open_ms;
  HostRef host(config.trace);
  Program program;

  // Setup of one shift: parse, stratify, generate and compile the shift's
  // shards, open a fleet with round 1 queued.
  auto setup = [&](int shift, std::vector<Shard>* shards)
      -> Result<std::unique_ptr<FleetServer>> {
    auto t0 = Clock::now();
    DMTL_ASSIGN_OR_RETURN(ParsedProgram parsed, ParseEthPerp(&trace));
    auto g0 = Clock::now();
    {
      Trace::Scope span(&trace, "chain.generate", -1);
      DMTL_ASSIGN_OR_RETURN(
          *shards, GenerateShards(config.seed, shift * per_shift, per_shift));
    }
    generate_ms.push_back(MsSince(g0));
    auto o0 = Clock::now();
    DMTL_ASSIGN_OR_RETURN(std::unique_ptr<FleetServer> server,
                          OpenFleet(parsed.program, *shards, &trace));
    open_ms.push_back(MsSince(o0));
    setup_ms.push_back(MsSince(t0));
    parse_ms.push_back(parsed.parse_ms);
    stratify_ms.push_back(parsed.stratify_ms);
    program = std::move(parsed.program);
    return server;
  };

  // Untimed warm-up: both rounds over a small fleet of shift 0's shards.
  trace.set_enabled(false);
  {
    std::vector<Shard> shards;
    auto warm = setup(0, &shards);
    if (!result.Expect(warm.status(), "open warm-up fleet")) return result;
    shards.resize(std::min<size_t>(kWarmupSessions, shards.size()));
    auto small = OpenFleet(program, shards, &trace);
    if (!result.Expect(small.status(), "open warm-up fleet")) return result;
    DrainRun run;
    if (!result.Expect(DrainTwice(small->get(), shards, &trace, &host, &run),
                       "warm-up drain")) {
      return result;
    }
    auto totals = SummarizeFleetRounds(run.rounds);
    if (!result.Expect(totals.status(), "warm-up reports")) return result;
    CheckReports(*totals, &result);
    setup_ms.clear();
    parse_ms.clear();
    stratify_ms.clear();
    generate_ms.clear();
    open_ms.clear();
  }

  // The timed work: kShifts fleets in turn. With --trace each shift also
  // runs traced on a fresh server, so the tracing overhead is measured shift
  // by shift.
  std::vector<double> shift_s[2];
  double drain_s[2][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [mode][round]
  double enqueue_s[2] = {0.0, 0.0};
  FleetTotals totals[2];
  SampleCheck sample[2];
  for (int shift = 0; shift < kShifts; ++shift) {
    std::vector<Shard> shards;
    trace.set_enabled(config.trace);  // setup spans
    auto opened = setup(shift, &shards);
    if (!result.Expect(opened.status(), "open fleet")) return result;
    for (int mode : ModeOrder(config.trace, shift)) {
      trace.set_enabled(false);
      Result<std::unique_ptr<FleetServer>> server =
          mode == 0 ? std::move(opened) : OpenFleet(program, shards, &trace);
      if (!result.Expect(server.status(), "open fleet")) return result;
      trace.set_enabled(mode == 1);
      DrainRun run;
      result.attempted += 2 * shards.size();
      if (!result.Expect(
              DrainTwice(server->get(), shards, &trace, &host, &run),
              "drain")) {
        return result;
      }
      shift_s[mode].push_back(run.wall_s);
      drain_s[mode][0] += run.drain_s[0];
      drain_s[mode][1] += run.drain_s[1];
      enqueue_s[mode] += run.enqueue_s;
      auto summary = SummarizeFleetRounds(run.rounds);
      if (!result.Expect(summary.status(), "fleet reports")) return result;
      CheckReports(*summary, &result);
      Accumulate(*summary, &totals[mode]);
      CheckSample(program, server->get(), shards, &trace, &sample[mode],
                  &result);
    }
    // A setup batch between shifts, so setup_s samples the whole run.
    trace.set_enabled(false);
    SetupBatch(
        [&] {
          std::vector<Shard> discarded;
          return setup(shift, &discarded).status();
        },
        &result);
  }
  if (config.trace &&
      (totals[1].snapshots != totals[0].snapshots ||
       totals[1].derived_intervals != totals[0].derived_intervals ||
       sample[1].checkpoint_bytes != sample[0].checkpoint_bytes)) {
    result.Fail("deterministic counts changed between passes");
  }

  // wall_s: the shifts are equal shares of the work, so the run's wall time
  // is estimated as kShifts x the median shift. A drain waits for its
  // slowest worker, so a stall on one vCPU stretches a whole shift; the
  // median keeps one such shift from moving the figure.
  const FleetTotals& t = totals[0];
  const double wall_s = kShifts * Median(shift_s[0]);
  result.E2E("setup_s", Median(setup_ms) / 1000.0, "s");
  result.E2E("wall_s", wall_s, "s");
  result.E2E("op_mean_ms", Mean(t.advance_latencies_us) / 1000.0, "ms");
  result.E2E("peak_rss_mb", PeakRssMb(), "MB");
  ReportHost(&result, host);

  result.counts["fleet.snapshots"] = static_cast<double>(t.snapshots);
  result.counts["fleet.derived_intervals"] =
      static_cast<double>(t.derived_intervals);
  result.counts["fleet.advances"] = static_cast<double>(t.advances);
  result.counts["storage.checkpoint_bytes"] = sample[0].checkpoint_bytes;

  if (config.trace) {
    const FleetTotals& tt = totals[1];
    const SampleCheck& checked = sample[1];
    double untraced_s = 0.0, traced_s = 0.0;
    for (double s : shift_s[0]) untraced_s += s;
    for (double s : shift_s[1]) traced_s += s;
    ReportCommonLayers(&result, trace, parse_ms, stratify_ms, generate_ms,
                       host, untraced_s, traced_s);
    double busy_ms = 0.0;
    for (double us : tt.advance_latencies_us) busy_ms += us / 1000.0;
    std::vector<double> op_ms;
    for (double us : t.advance_latencies_us) op_ms.push_back(us / 1000.0);
    result.Layer("op.p50_ms", Median(op_ms), "ms");
    result.Layer("op.tail_ms", TailPercentile(op_ms), "ms");
    result.Layer("eval.derived_per_event",
                 static_cast<double>(tt.derived_intervals) /
                     static_cast<double>(tt.advances),
                 "count");
    result.Layer("eval.materialize_ms", Median(checked.materialize_ms), "ms");
    result.Layer("storage.snapshot_ms", Mean(checked.checkpoint_ms), "ms");
    result.Layer("storage.encode_ms", Mean(checked.encode_ms), "ms");
    result.Layer("storage.decode_ms", Mean(checked.decode_ms), "ms");
    result.Layer("engine.restore_ms", Mean(checked.restore_ms), "ms");
    result.Layer("storage.checkpoint_mb", checked.checkpoint_bytes / 1e6, "MB");
    result.Layer("storage.checkpoint_kb_p50", Median(checked.checkpoint_kb),
                 "KB");
    result.Layer("storage.checkpoint_kb_max",
                 Max(checked.checkpoint_kb), "KB");
    result.Layer("storage.passivated_kb_per_session", Mean(checked.checkpoint_kb),
                 "KB");
    result.Layer("fleet.open_ms", Median(open_ms), "ms");
    result.Layer("fleet.enqueue_ms", enqueue_s[1] * 1000.0, "ms");
    result.Layer("fleet.drain_first_s", drain_s[1][0], "s");
    result.Layer("fleet.drain_resume_s", drain_s[1][1], "s");
    result.Layer("fleet.busy_frac",
                 busy_ms / (static_cast<double>(workers) *
                            (drain_s[1][0] + drain_s[1][1]) * 1000.0),
                 "ratio");
    result.Layer("fleet.sessions", static_cast<double>(tt.sessions), "count");
    result.Layer("fleet.advances", static_cast<double>(tt.advances), "count");
    result.Layer("fleet.snapshots", static_cast<double>(tt.snapshots), "count");
    result.Layer("fleet.retried", static_cast<double>(tt.retried), "count");
    result.Layer("fleet.ops_replayed", static_cast<double>(tt.ops_replayed),
                 "count");
    result.Layer("fleet.derived_intervals",
                 static_cast<double>(tt.derived_intervals), "count");
    result.Layer("fleet.workers", static_cast<double>(workers), "count");
  }
  return result;
}

}  // namespace perfbench
