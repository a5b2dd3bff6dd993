// paper_batch: cold, sequential settlement of the paper-scale ETH-PERP
// window (267 events / 59 trades / 14400 s, the bench/contract_scaling.cc
// shape) drawn from the run seed. One op = SessionToDatabase, Materialize,
// then FRS and trade extraction. Eval and the temporal kernels do nearly
// all the work; no streaming, snapshot or fleet call is made, so this is the
// bypass workload for changes to those layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench/workloads.h"
#include "src/chain/replayer.h"
#include "src/chain/subgraph.h"
#include "src/chain/workload.h"
#include "src/contracts/trade_extractor.h"
#include "src/engine/reasoner.h"
#include "src/validation/compare.h"

namespace perfbench {
namespace {

using namespace dmtl;

// Nominal cost of one settlement at the time the workload was sized (about
// 3 s on a 4-vCPU x86 host); the timed work is seconds / kNominalOpS ops.
constexpr double kNominalOpS = 3.0;
constexpr int kMinOps = 3;
// FRS and trade figures must agree with the reference engine this closely.
constexpr double kTolerance = 1e-9;

WorkloadConfig PaperBatchConfig(uint64_t seed) {
  WorkloadConfig config;
  config.name = "paper_batch";
  config.num_events = 267;
  config.num_trades = 59;
  config.duration_s = 14400;
  config.initial_skew = -1000.0;
  config.seed = seed;
  return config;
}

struct Settlement {
  EngineStats stats;
  std::vector<FrsPoint> frs;
  std::vector<TradeSettlement> trades;
  Status status = Status::Ok();
};

// One op. The materialized database is dropped after the timer stops.
Settlement Settle(const Program& program, const Session& session,
                  Trace* trace, int64_t op, double* op_ms,
                  double* materialize_ms) {
  Settlement out;
  Database db;
  auto t0 = Clock::now();
  {
    Trace::Scope span(trace, "bench.op", op);
    {
      Trace::Scope inputs(trace, "chain.inputs", op);
      db = SessionToDatabase(session);
    }
    auto m0 = Clock::now();
    {
      Trace::Scope eval(trace, "eval.materialize", op);
      out.status =
          Materialize(program, &db, SessionEngineOptions(session), &out.stats);
    }
    *materialize_ms = MsSince(m0);
    if (out.status.ok()) {
      Trace::Scope extract(trace, "contracts.extract", op);
      auto frs = ExtractFrsAt(db, session.EventTimes());
      auto trades = ExtractTrades(db);
      if (!frs.ok()) {
        out.status = frs.status();
      } else if (!trades.ok()) {
        out.status = trades.status();
      } else {
        out.frs = std::move(frs).value();
        out.trades = std::move(trades).value();
      }
    }
  }
  *op_ms = MsSince(t0);
  return out;
}

// Checks one settlement against the reference engine and the warm-up's
// deterministic counts.
void Check(const Settlement& s, const Subgraph& reference,
           const EngineStats& expected, RunResult* result) {
  if (!result->Expect(s.status, "settlement")) return;
  auto frs = CompareFrsSeries(reference.FundingRateUpdates(), s.frs);
  if (!result->Expect(frs.status(), "frs comparison")) return;
  if (frs->max_abs_diff > kTolerance) {
    result->Fail("frs differs from the reference: " + frs->ToString());
    return;
  }
  std::vector<TradeSettlement> ref_trades = reference.FuturesTrades();
  auto trades = CompareTrades(ref_trades, s.trades);
  if (!result->Expect(trades.status(), "trade comparison")) return;
  if (trades->matched != ref_trades.size() ||
      trades->returns.max_abs > kTolerance ||
      trades->fee.max_abs > kTolerance ||
      trades->funding.max_abs > kTolerance) {
    result->Fail("trades differ from the reference: " + trades->ToString());
    return;
  }
  if (s.stats.derived_intervals != expected.derived_intervals ||
      s.stats.rounds != expected.rounds ||
      s.stats.delta_intervals != expected.delta_intervals) {
    result->Fail("deterministic counts changed between settlements");
  }
}

}  // namespace

RunResult RunPaperBatch(const RunConfig& config) {
  RunResult result;
  Trace trace(config.trace);
  const int ops = std::max(
      kMinOps, static_cast<int>(std::lround(config.seconds / kNominalOpS)));

  // One setup: parse, stratify, generate the session.
  std::vector<double> setup_ms, parse_ms, stratify_ms, generate_ms;
  auto setup = [&](Program* program, Session* session) -> Status {
    auto t0 = Clock::now();
    DMTL_ASSIGN_OR_RETURN(ParsedProgram parsed, ParseEthPerp(&trace));
    auto g0 = Clock::now();
    Result<Session> generated = [&] {
      Trace::Scope span(&trace, "chain.generate", -1);
      return GenerateSession(PaperBatchConfig(config.seed));
    }();
    generate_ms.push_back(MsSince(g0));
    DMTL_RETURN_IF_ERROR(generated.status());
    setup_ms.push_back(MsSince(t0));
    parse_ms.push_back(parsed.parse_ms);
    stratify_ms.push_back(parsed.stratify_ms);
    *program = std::move(parsed.program);
    *session = std::move(generated).value();
    return Status::Ok();
  };
  Program program;
  Session session;
  for (int rep = 0; rep < kFirstSetupReps; ++rep) {
    if (!result.Expect(setup(&program, &session), "setup")) return result;
  }
  auto discarded_setup = [&] {
    Program p;
    Session s;
    return setup(&p, &s);
  };

  // The oracle: the imperative reference engine over the same session.
  auto reference = Subgraph::Index(session);
  if (!result.Expect(reference.status(), "reference run")) return result;

  // Untimed warm-up: absorbs the first materialization's page faults and
  // fixes the counts every timed op must repeat.
  HostRef host(config.trace);
  host.Sample(kRefSamples);
  trace.set_enabled(false);
  double op_ms = 0.0, mat_ms = 0.0;
  Settlement warm = Settle(program, session, &trace, -1, &op_ms, &mat_ms);
  if (!result.Expect(warm.status, "warm-up settlement")) return result;
  Check(warm, *reference, warm.stats, &result);

  // Timed ops, untraced for the end-to-end figures. With --trace each op has
  // a traced twin, so the tracing overhead is measured op by op.
  double wall_s[2] = {0.0, 0.0};
  std::vector<double> op_samples, mat_samples;
  for (int i = 0; i < ops; ++i) {
    for (int mode : ModeOrder(config.trace, i)) {
      trace.set_enabled(false);
      host.Sample(kRefSamples);
      SetupBatch(discarded_setup, &result);
      trace.set_enabled(mode == 1);
      Settlement s = Settle(program, session, &trace, i, &op_ms, &mat_ms);
      std::fprintf(stderr, "perfbench: paper_batch op %d%s: %.1f ms\n", i,
                   mode == 1 ? " (traced)" : "", op_ms);
      ++result.attempted;
      wall_s[mode] += op_ms / 1000.0;
      if (mode == 0) op_samples.push_back(op_ms);
      if (mode == 1) mat_samples.push_back(mat_ms);
      Check(s, *reference, warm.stats, &result);
    }
  }

  result.E2E("setup_s", Median(setup_ms) / 1000.0, "s");
  result.E2E("wall_s", wall_s[0], "s");
  result.E2E("op_mean_ms", Mean(op_samples), "ms");
  result.E2E("peak_rss_mb", PeakRssMb(), "MB");
  ReportHost(&result, host);

  const EngineStats& st = warm.stats;
  result.counts["eval.derived_intervals"] =
      static_cast<double>(st.derived_intervals);
  result.counts["eval.rounds"] = static_cast<double>(st.rounds);
  result.counts["eval.delta_intervals"] =
      static_cast<double>(st.delta_intervals);
  result.counts["contracts.trades"] = static_cast<double>(warm.trades.size());

  if (config.trace) {
    ReportCommonLayers(&result, trace, parse_ms, stratify_ms, generate_ms,
                       host, wall_s[0], wall_s[1]);
    const auto& spans = trace.spans();
    result.Layer("op.p50_ms", Median(op_samples), "ms");
    result.Layer("op.tail_ms", TailPercentile(op_samples), "ms");
    result.Layer("chain.inputs_ms", Median(DurationsMs(spans, "chain.inputs")),
                 "ms");
    result.Layer("eval.materialize_ms", Median(mat_samples), "ms");
    result.Layer("contracts.extract_ms",
                 Median(DurationsMs(spans, "contracts.extract")), "ms");
    ReportEvalCounts(&result, warm.stats);
  }
  return result;
}

}  // namespace perfbench
