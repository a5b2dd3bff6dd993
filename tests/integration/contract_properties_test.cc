// Property-style invariants of the ETH-PERP contract over randomized
// sessions: fees are non-negative, funding always debits the heavy side,
// settlements fold into margins exactly, and the materialization is
// insensitive to re-running. Complements the pointwise end-to-end tests.

#include <gtest/gtest.h>

#include <map>

#include "src/chain/replayer.h"
#include "src/chain/subgraph.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/contracts/trade_extractor.h"
#include "src/engine/reasoner.h"

namespace dmtl {
namespace {

// Stored-interval budget for one session. Seeds 101-606 derive 40,333 to
// 41,726 intervals over their 120 input facts; 170,000 is about 4x the
// largest, so an engine fault that over-derives stops as kResourceExhausted
// within a few hundred MB instead of growing the process to gigabytes.
constexpr size_t kMaxIntervals = 170'000;

EngineOptions BudgetedOptions(const Session& session) {
  EngineOptions options = SessionEngineOptions(session);
  options.max_intervals = kMaxIntervals;
  return options;
}

struct RunResult {
  Session session;
  Database db;
  std::vector<TradeSettlement> trades;
};

RunResult RunSeed(uint64_t seed) {
  WorkloadConfig config;
  config.name = "prop-" + std::to_string(seed);
  config.num_events = 36;
  config.num_trades = 7;
  config.duration_s = 1200;
  // Strongly one-sided so the funding-rate sign is constant throughout
  // (the FundingNetsAcrossSides property relies on it).
  config.initial_skew = (seed % 2 == 0) ? 5000.0 : -5000.0;
  config.seed = seed;
  RunResult out;
  auto session = GenerateSession(config);
  EXPECT_TRUE(session.ok()) << session.status();
  out.session = *session;
  auto program = EthPerpProgram();
  EXPECT_TRUE(program.ok());
  out.db = SessionToDatabase(out.session);
  Status status = Materialize(*program, &out.db, BudgetedOptions(out.session));
  EXPECT_TRUE(status.ok()) << status;
  auto trades = ExtractTrades(out.db);
  EXPECT_TRUE(trades.ok()) << trades.status();
  out.trades = *trades;
  return out;
}

class ContractPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContractPropertyTest, EveryCloseSettlesCompletely) {
  RunResult run = RunSeed(GetParam());
  // One settlement per closePos, each with pnl+fee+funding joined.
  EXPECT_EQ(run.trades.size(), run.session.NumTrades());
}

TEST_P(ContractPropertyTest, FeesAreStrictlyPositive) {
  RunResult run = RunSeed(GetParam());
  MarketParams params;
  for (const TradeSettlement& t : run.trades) {
    EXPECT_GT(t.fee, 0.0) << t.account << "@" << t.time;
    // And bounded by the taker rate on twice the traded notional... loose
    // sanity: a fee can never exceed taker_fee * total traded notional,
    // which itself is bounded by trips * max_size * max_price. Use a
    // generous absolute cap to catch unit blunders (e.g. percent vs rate).
    EXPECT_LT(t.fee, 1.0e5) << t.account;
  }
}

TEST_P(ContractPropertyTest, SettlementFoldsIntoMarginExactly) {
  RunResult run = RunSeed(GetParam());
  for (const TradeSettlement& t : run.trades) {
    auto before = MarginAt(run.db, t.account, t.time - 1);
    auto after = MarginAt(run.db, t.account, t.time);
    ASSERT_TRUE(before.ok()) << before.status();
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_NEAR(*after, *before + t.pnl - t.fee + t.funding, 1e-9)
        << t.account << "@" << t.time;
  }
}

TEST_P(ContractPropertyTest, FundingNetsAcrossSides) {
  // The funding mechanism transfers from the heavy side to the light side:
  // with a strongly skewed market, longs and shorts have opposite funding
  // signs (unless the position flipped sides mid-trade, which the check
  // skips by looking at the opening order only).
  RunResult run = RunSeed(GetParam());
  std::map<std::pair<std::string, int64_t>, double> open_side;
  std::map<std::string, double> size;
  std::map<std::string, int64_t> flips;
  for (const MarketEvent& e : run.session.events) {
    if (e.kind == EventKind::kModifyPosition) {
      double before = size[e.account];
      size[e.account] += e.amount;
      if (before != 0 && (before > 0) != (size[e.account] > 0)) {
        flips[e.account] = e.time;
      }
    } else if (e.kind == EventKind::kClosePosition) {
      open_side[{e.account, e.time}] = size[e.account];
      size[e.account] = 0;
    }
  }
  // Strongly one-sided initial skew dominates individual orders in these
  // sessions, so the instantaneous rate keeps one sign throughout.
  double skew_sign = run.session.initial_skew > 0 ? 1.0 : -1.0;
  for (const TradeSettlement& t : run.trades) {
    if (flips.count(t.account)) continue;
    double side = open_side[{t.account, t.time}];
    if (side == 0 || t.funding == 0) continue;
    // Positive skew: longs pay (funding < 0 for side > 0), shorts receive.
    double expected_sign = (side > 0 ? -1.0 : 1.0) * skew_sign;
    EXPECT_GT(t.funding * expected_sign, 0.0)
        << t.account << "@" << t.time << " side=" << side;
  }
}

TEST_P(ContractPropertyTest, RematerializationIsIdempotent) {
  RunResult run = RunSeed(GetParam());
  std::string before = run.db.ToString();
  auto program = EthPerpProgram();
  ASSERT_TRUE(
      Materialize(*program, &run.db, BudgetedOptions(run.session)).ok());
  EXPECT_EQ(run.db.ToString(), before);
}

TEST_P(ContractPropertyTest, HistoryIsNeverRewritten) {
  // Monotone state evolution: margins queried mid-session match margins
  // queried at the end for the same past tick (no destructive updates).
  RunResult run = RunSeed(GetParam());
  Subgraph subgraph = *Subgraph::Index(run.session);
  for (const auto& [account, amount] : subgraph.Withdrawals()) {
    // Find the withdraw tick.
    for (const MarketEvent& e : run.session.events) {
      if (e.kind == EventKind::kWithdraw && e.account == account) {
        auto margin = MarginAt(run.db, account, e.time - 1);
        ASSERT_TRUE(margin.ok()) << margin.status();
        EXPECT_NEAR(*margin, amount, 1e-9) << account;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContractPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace dmtl
