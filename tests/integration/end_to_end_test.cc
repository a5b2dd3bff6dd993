// The paper's Section 4 validation methodology, end to end on reduced
// sessions: generate a workload, run it through the DatalogMTL program in
// the reasoner AND through the imperative reference contract, then compare
// the funding-rate sequence and every trade settlement. (The full-scale
// Figure 3/4/5 reproduction lives in bench/.)

#include <gtest/gtest.h>

#include "src/chain/replayer.h"
#include "src/chain/subgraph.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/contracts/trade_extractor.h"
#include "src/engine/reasoner.h"
#include "src/validation/compare.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (64,560), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 260'000;

struct SessionOutcome {
  SeriesComparison frs;
  TradeErrorReport trades;
  size_t trade_count = 0;
};

SessionOutcome RunAndCompare(const WorkloadConfig& config,
                             MarketParams params = {}) {
  SessionOutcome outcome;
  auto session = GenerateSession(config);
  EXPECT_TRUE(session.ok()) << session.status();

  // DatalogMTL side.
  auto program = EthPerpProgram(params);
  EXPECT_TRUE(program.ok()) << program.status();
  Database db = SessionToDatabase(*session);
  EngineOptions options = SessionEngineOptions(*session);
  options.max_intervals = kContractIntervalBudget;
  Status status = Materialize(*program, &db, options);
  EXPECT_TRUE(status.ok()) << status;

  // Reference side (the Subgraph stand-in).
  auto subgraph = Subgraph::Index(*session, params);
  EXPECT_TRUE(subgraph.ok()) << subgraph.status();

  auto frs = ExtractFrsAt(db, session->EventTimes());
  EXPECT_TRUE(frs.ok()) << frs.status();
  auto frs_cmp = CompareFrsSeries(subgraph->FundingRateUpdates(), *frs);
  EXPECT_TRUE(frs_cmp.ok()) << frs_cmp.status();
  outcome.frs = *frs_cmp;

  auto trades = ExtractTrades(db);
  EXPECT_TRUE(trades.ok()) << trades.status();
  outcome.trade_count = trades->size();
  auto report = CompareTrades(subgraph->FuturesTrades(), *trades);
  EXPECT_TRUE(report.ok()) << report.status();
  outcome.trades = *report;
  return outcome;
}

TEST(EndToEndTest, SmallSessionAgreesWithReference) {
  WorkloadConfig cfg;
  cfg.name = "e2e-small";
  cfg.num_events = 30;
  cfg.num_trades = 6;
  cfg.duration_s = 900;
  cfg.initial_skew = -800.0;
  cfg.seed = 11;
  SessionOutcome outcome = RunAndCompare(cfg);
  EXPECT_EQ(outcome.trade_count, 6u);
  // The paper reports FRS agreement at the 1e-12 level; two independent
  // double implementations should match at least that well here.
  EXPECT_LT(outcome.frs.max_abs_diff, 1e-9);
  EXPECT_LT(outcome.trades.returns.max_abs, 1e-9);
  EXPECT_LT(outcome.trades.fee.max_abs, 1e-9);
  EXPECT_LT(outcome.trades.funding.max_abs, 1e-9);
}

TEST(EndToEndTest, PositiveInitialSkewSession) {
  WorkloadConfig cfg;
  cfg.name = "e2e-positive-skew";
  cfg.num_events = 48;
  cfg.num_trades = 10;
  cfg.duration_s = 1500;
  cfg.initial_skew = 2502.85;
  cfg.seed = 12;
  SessionOutcome outcome = RunAndCompare(cfg);
  EXPECT_EQ(outcome.trade_count, 10u);
  EXPECT_LT(outcome.frs.max_abs_diff, 1e-9);
  EXPECT_LT(outcome.trades.funding.max_abs, 1e-9);
}

TEST(EndToEndTest, PrintedRulesConventionAlsoAgrees) {
  // The fee-side convention is applied consistently on both sides, so the
  // validation holds under either reading of the paper.
  MarketParams params;
  params.fee_convention = FeeConvention::kPrintedRules;
  WorkloadConfig cfg;
  cfg.num_events = 30;
  cfg.num_trades = 6;
  cfg.duration_s = 900;
  cfg.seed = 13;
  SessionOutcome outcome = RunAndCompare(cfg, params);
  EXPECT_LT(outcome.trades.fee.max_abs, 1e-9);
}

TEST(EndToEndTest, AccelerationDoesNotChangeContractResults) {
  WorkloadConfig cfg;
  cfg.num_events = 16;
  cfg.num_trades = 3;
  cfg.duration_s = 600;
  cfg.seed = 14;
  auto session = GenerateSession(cfg);
  ASSERT_TRUE(session.ok());
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok());
  EngineOptions options = SessionEngineOptions(*session);
  options.max_intervals = kContractIntervalBudget;
  Database engine = SessionToDatabase(*session);
  Database oracle = SessionToDatabase(*session);
  EngineStats stats;
  ASSERT_TRUE(Materialize(*program, &engine, options, &stats).ok());
  ASSERT_TRUE(OracleMaterialize(*program, &oracle, options).ok());
  EXPECT_GT(stats.chain_extensions, 0u);
  EXPECT_EQ(engine.ToString(), oracle.ToString());
}

TEST(EndToEndTest, MarginAtWithdrawalMatchesReference) {
  // Extension beyond the paper's metrics: final margin balances agree too.
  WorkloadConfig cfg;
  cfg.num_events = 30;
  cfg.num_trades = 6;
  cfg.duration_s = 900;
  cfg.seed = 15;
  auto session = GenerateSession(cfg);
  ASSERT_TRUE(session.ok());
  auto program = EthPerpProgram();
  Database db = SessionToDatabase(*session);
  EngineOptions options = SessionEngineOptions(*session);
  options.max_intervals = kContractIntervalBudget;
  ASSERT_TRUE(Materialize(*program, &db, options).ok());
  auto subgraph = Subgraph::Index(*session);
  ASSERT_TRUE(subgraph.ok());
  for (const MarketEvent& e : session->events) {
    if (e.kind != EventKind::kWithdraw) continue;
    // margin last holds the tick before the withdrawal.
    auto margin = MarginAt(db, e.account, e.time - 1);
    ASSERT_TRUE(margin.ok()) << margin.status();
    EXPECT_NEAR(*margin, subgraph->Withdrawals().at(e.account), 1e-9)
        << e.account;
  }
}

}  // namespace
}  // namespace dmtl
