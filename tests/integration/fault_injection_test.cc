#include <gtest/gtest.h>

#include <string>

#include "src/common/fault_injector.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

// Two mutually recursive divergent predicates: every fixpoint round has two
// rules with fresh deltas, and the horizon makes the clean fixpoint finite.
constexpr char kTwin[] =
    "a(A) :- deposit(A) .\n"
    "b(A) :- deposit(A) .\n"
    "a(A) :- boxminus b(A) .\n"
    "b(A) :- boxminus a(A) .\n"
    "deposit(x)@2 .\n";

Parser::ParsedUnit ParseTwin() {
  auto unit = Parser::Parse(kTwin);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return *unit;
}

// Neither rule is a self-chain, so rounds advance one step at a time; the
// horizon makes the clean fixpoint terminate.
EngineOptions TwinOptions() {
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);
  return options;
}

std::string CleanResult() {
  Parser::ParsedUnit unit = ParseTwin();
  Database db = unit.database;
  Status status = Materialize(unit.program, &db, TwinOptions());
  EXPECT_TRUE(status.ok()) << status;
  return db.ToString();
}

// The contract every injected failure must satisfy: the database sits at
// the exact round barrier reported in the stats (verified against a
// max_rounds-capped reference run), and a clean re-run from the partial
// database reaches the same fixpoint as an unfaulted run.
void ExpectBarrierConsistentAndRecoverable(const EngineOptions& options,
                                           const EngineStats& stats,
                                           Database db) {
  Parser::ParsedUnit unit = ParseTwin();
  if (stats.stopped_round == 0) {
    EXPECT_EQ(db.ToString(), unit.database.ToString());
  } else {
    EngineOptions reference = options;
    reference.max_rounds = stats.stopped_round - 1;
    Database ref_db = unit.database;
    EngineStats ref_stats;
    Status ref_status =
        Materialize(unit.program, &ref_db, reference, &ref_stats);
    ASSERT_EQ(ref_status.code(), StatusCode::kResourceExhausted);
    ASSERT_EQ(ref_stats.stopped_round, stats.stopped_round);
    EXPECT_EQ(db.ToString(), ref_db.ToString());
  }
  // Recovery: with the fault disarmed, materialization completes from the
  // partial database and reaches the clean fixpoint.
  Status rerun = Materialize(unit.program, &db, options);
  ASSERT_TRUE(rerun.ok()) << rerun;
  EXPECT_EQ(db.ToString(), CleanResult());
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Reset(); }
  void TearDown() override { FaultInjector::Reset(); }
};

TEST_F(FaultInjectionTest, RoundFaultRollsBackAndRecovers) {
  // Hit 3 = the start of fixpoint round 2 (round 0 and round 1 passed).
  FaultInjector::Arm("seminaive.round", 3,
                     Status::EvalError("injected round fault"));
  Parser::ParsedUnit unit = ParseTwin();
  Database db = unit.database;
  EngineOptions options = TwinOptions();
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  FaultInjector::Reset();
  ASSERT_EQ(status.code(), StatusCode::kEvalError);
  EXPECT_EQ(status.message(), "injected round fault");
  EXPECT_EQ(stats.stop_reason, StopReason::kError);
  EXPECT_EQ(stats.stopped_round, 2u);
  ExpectBarrierConsistentAndRecoverable(options, stats, std::move(db));
}

TEST_F(FaultInjectionTest, InsertSetThrowBeforeMutationLeavesStoreClean) {
  // Hit 1 is the store-side insert of the first emission of round 0: the
  // site throws before mutating, the round protection converts it to a
  // clean kInternal, and the database comes back exactly as it went in.
  FaultInjector::ArmThrow("database.insert_set", 1, "injected storage fault");
  Parser::ParsedUnit unit = ParseTwin();
  Database db = unit.database;
  EngineOptions options = TwinOptions();
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  FaultInjector::Reset();
  ASSERT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("injected storage fault"),
            std::string::npos);
  EXPECT_EQ(stats.stop_reason, StopReason::kError);
  EXPECT_EQ(stats.stopped_round, 0u);
  EXPECT_EQ(db.ToString(), unit.database.ToString());
  ExpectBarrierConsistentAndRecoverable(options, stats, std::move(db));
}

TEST_F(FaultInjectionTest, InsertSetThrowAfterPairedInsertIsRepaired) {
  // Hit 2 is the *delta-side* insert paired with a store insert that
  // already succeeded; the sink must undo the paired store insert before
  // rethrowing or the rollback would miss that coverage (a torn database).
  FaultInjector::ArmThrow("database.insert_set", 2, "injected delta fault");
  Parser::ParsedUnit unit = ParseTwin();
  Database db = unit.database;
  EngineOptions options = TwinOptions();
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  FaultInjector::Reset();
  ASSERT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(stats.stopped_round, 0u);
  EXPECT_EQ(db.ToString(), unit.database.ToString());
  ExpectBarrierConsistentAndRecoverable(options, stats, std::move(db));
}

TEST_F(FaultInjectionTest, EveryStatusSiteFirstHitIsCleanAndRecoverable) {
  // Safety-net sweep: arm each Status-returning site on its very first
  // hit. A site the engine never reaches (the pool's task site - every
  // engine run is sequential) must leave the run untouched; a reached site
  // must fail cleanly and recover after Reset.
  for (const char* site : {"seminaive.round", "thread_pool.task"}) {
    SCOPED_TRACE(site);
    FaultInjector::Arm(site, 1, Status::EvalError("injected sweep fault"));
    Parser::ParsedUnit unit = ParseTwin();
    Database db = unit.database;
    EngineOptions options = TwinOptions();
    EngineStats stats;
    Status status = Materialize(unit.program, &db, options, &stats);
    uint64_t hits = FaultInjector::HitCount(site);
    FaultInjector::Reset();
    if (status.ok()) {
      EXPECT_EQ(hits, 0u);
      EXPECT_EQ(db.ToString(), CleanResult());
    } else {
      ASSERT_EQ(status.code(), StatusCode::kEvalError);
      EXPECT_EQ(stats.stop_reason, StopReason::kError);
      ExpectBarrierConsistentAndRecoverable(options, stats, std::move(db));
    }
  }
}

}  // namespace
}  // namespace dmtl
