#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

// A divergent program: without a horizon, `open` propagates forward
// forever (the paper's "market never closes" case). Every guard and budget
// test drives this so trips are guaranteed to have something to interrupt.
constexpr char kDivergent[] =
    "open(A) :- deposit(A) .\n"
    "open(A) :- boxminus open(A) .\n"
    "deposit(x)@2 .\n";

// A divergent cycle of two predicates, for the round-barrier consistency
// tests: neither rule is a self-chain, so the run advances one fixpoint
// round - one time point - at a time.
constexpr char kStepped[] =
    "a(A) :- deposit(A) .\n"
    "b(A) :- deposit(A) .\n"
    "a(A) :- boxminus b(A) .\n"
    "b(A) :- boxminus a(A) .\n"
    "deposit(x)@2 .\n";

Parser::ParsedUnit ParseText(const char* text) {
  auto unit = Parser::Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status();
  return *unit;
}

Parser::ParsedUnit ParseDivergent() { return ParseText(kDivergent); }
Parser::ParsedUnit ParseStepped() { return ParseText(kStepped); }

// Re-runs the same configuration capped at the completed rounds of a
// tripped run and asserts the tripped database matches that barrier state
// exactly - the round-barrier consistency guarantee.
void ExpectAtRoundBarrier(const EngineOptions& tripped_options,
                          const EngineStats& tripped_stats,
                          const Database& tripped_db) {
  Parser::ParsedUnit unit = ParseStepped();
  if (tripped_stats.stopped_round == 0) {
    // Tripped during the stratum's initial full round: nothing of this
    // stratum may have survived.
    EXPECT_EQ(tripped_db.ToString(), unit.database.ToString());
    return;
  }
  EngineOptions reference = tripped_options;
  reference.deadline.reset();
  reference.cancel_token = nullptr;
  reference.max_intervals = EngineOptions().max_intervals;
  reference.max_rounds = tripped_stats.stopped_round - 1;
  Database ref_db = unit.database;
  EngineStats ref_stats;
  Status ref_status = Materialize(unit.program, &ref_db, reference,
                                  &ref_stats);
  // The reference run trips on its round cap - with the database sitting at
  // exactly the same barrier.
  ASSERT_EQ(ref_status.code(), StatusCode::kResourceExhausted);
  ASSERT_EQ(ref_stats.stop_reason, StopReason::kMaxRounds);
  ASSERT_EQ(ref_stats.stopped_round, tripped_stats.stopped_round);
  EXPECT_EQ(tripped_db.ToString(), ref_db.ToString());
}

// The chain walk emits the divergent grid as point runs, one O(1) emission
// per 65536 points, so the default interval budget would stop the run
// within milliseconds. Lifting it leaves the deadline or the cancellation
// as the only way out.
EngineOptions UnbudgetedOptions() {
  EngineOptions options;
  options.max_intervals = std::numeric_limits<size_t>::max();
  return options;
}

TEST(GuardTest, DeadlineTripsOnDivergentProgram) {
  Parser::ParsedUnit unit = ParseDivergent();
  Database db = unit.database;
  EngineOptions options = UnbudgetedOptions();
  options.deadline = std::chrono::milliseconds(50);
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.stop_reason, StopReason::kDeadline);
  EXPECT_GE(stats.stopped_stratum, 0);
  EXPECT_GT(stats.guard_checks, 0u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_EQ(stats.intervals_at_stop, db.NumIntervals());
  EXPECT_NE(stats.StopDiagnostics().find("stop_reason=deadline"),
            std::string::npos);
}

TEST(GuardTest, DeadlineLeavesDatabaseAtRoundBarrier) {
  Parser::ParsedUnit unit = ParseStepped();
  Database db = unit.database;
  EngineOptions options;
  options.deadline = std::chrono::milliseconds(50);
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  ExpectAtRoundBarrier(options, stats, db);
}

TEST(GuardTest, CancellationFromAnotherThread) {
  Parser::ParsedUnit unit = ParseDivergent();
  Database db = unit.database;
  EngineOptions options = UnbudgetedOptions();
  options.cancel_token = std::make_shared<CancellationToken>();
  std::thread canceller([token = options.cancel_token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token->Cancel();
  });
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  canceller.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(stats.intervals_at_stop, db.NumIntervals());
}

// A deadline that has already passed when the run starts must trip on the
// very first poll: a check site may be strided, but Check() itself reads
// the clock on every call.
TEST(GuardTest, PassedDeadlineTripsOnTheFirstCheck) {
  Parser::ParsedUnit unit = ParseDivergent();
  Database db = unit.database;
  std::string before = db.ToString();
  EngineOptions options;
  options.deadline = std::chrono::milliseconds(0);
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.guard_checks, 1u);
  EXPECT_EQ(stats.stopped_round, 0u);
  EXPECT_EQ(db.ToString(), before);
}

TEST(GuardTest, PreCancelledRunLeavesDatabaseUntouched) {
  Parser::ParsedUnit unit = ParseDivergent();
  Database db = unit.database;
  std::string before = db.ToString();
  EngineOptions options;
  options.cancel_token = std::make_shared<CancellationToken>();
  options.cancel_token->Cancel();
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.stopped_round, 0u);
  EXPECT_EQ(db.ToString(), before);
}

TEST(GuardTest, MaxRoundsTripThenHorizonRerunCompletes) {
  Parser::ParsedUnit unit = ParseStepped();
  Database db = unit.database;
  EngineOptions options;
  options.max_rounds = 5;
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.stop_reason, StopReason::kMaxRounds);
  // The cap refuses round max_rounds + 1, so the database holds rounds
  // [0, max_rounds].
  EXPECT_EQ(stats.stopped_round, options.max_rounds + 1);
  EXPECT_NE(stats.StopDiagnostics().find("stop_reason=max_rounds"),
            std::string::npos);

  // A follow-up run with a horizon completes from the partial database
  // and lands on the same result as a clean horizon run.
  EngineOptions horizon;
  horizon.min_time = Rational(0);
  horizon.max_time = Rational(10);
  Status rerun = Materialize(unit.program, &db, horizon);
  ASSERT_TRUE(rerun.ok()) << rerun;

  Database fresh = ParseStepped().database;
  ASSERT_TRUE(Materialize(unit.program, &fresh, horizon).ok());
  EXPECT_EQ(db.ToString(), fresh.ToString());
}

TEST(GuardTest, MaxIntervalsTripIsRoundBarrierConsistent) {
  Parser::ParsedUnit unit = ParseStepped();
  Database db = unit.database;
  EngineOptions options;
  options.max_intervals = db.NumIntervals() + 3;
  EngineStats stats;
  Status status = Materialize(unit.program, &db, options, &stats);
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.stop_reason, StopReason::kMaxIntervals);
  EXPECT_EQ(stats.intervals_at_stop, db.NumIntervals());
  // Partial work of the tripped round must have been rolled back.
  ExpectAtRoundBarrier(options, stats, db);
}

}  // namespace
}  // namespace dmtl
