#include "src/eval/seminaive.h"

#include <gtest/gtest.h>

#include "src/parser/parser.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

// Materializes a combined rules+facts text under the given options and
// returns the resulting database rendering.
std::string RunText(const char* text, EngineOptions options = {},
                EngineStats* stats = nullptr) {
  auto unit = Parser::Parse(text);
  EXPECT_TRUE(unit.ok()) << unit.status();
  Database db = unit->database;
  Status status = Materialize(unit->program, &db, options, stats);
  EXPECT_TRUE(status.ok()) << status;
  return db.ToString();
}

EngineOptions Window(int64_t lo, int64_t hi) {
  EngineOptions options;
  options.min_time = Rational(lo);
  options.max_time = Rational(hi);
  return options;
}

TEST(SemiNaiveTest, NonRecursiveProgram) {
  EXPECT_EQ(RunText("q(X) :- p(X) .\n p(a)@[1,3] ."),
            "p(a)@{[1,3]}\nq(a)@{[1,3]}\n");
}

TEST(SemiNaiveTest, TransitiveClosure) {
  std::string out = RunText(
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[5,10] . edge(c, d)@[0,4] .");
  // reach(a,c) only while both edges hold; reach(a,d) never (disjoint).
  EXPECT_NE(out.find("reach(a, b)@{[0,10]}"), std::string::npos);
  EXPECT_NE(out.find("reach(a, c)@{[5,10]}"), std::string::npos);
  EXPECT_EQ(out.find("reach(a, d)"), std::string::npos);
}

TEST(SemiNaiveTest, TemporalSelfPropagation) {
  std::string out = RunText(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "deposit(x)@2 . close(x)@6 .",
      Window(0, 10));
  EXPECT_NE(out.find("open(x)@{[2,2] [3,3] [4,4] [5,5]}"), std::string::npos);
}

TEST(SemiNaiveTest, HorizonClampsUnboundedPropagation) {
  // Without a close event the chain would run forever; the horizon stops it.
  std::string out = RunText(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A) .\n"
      "deposit(x)@2 .",
      Window(0, 5));
  EXPECT_NE(out.find("open(x)@{[2,2] [3,3] [4,4] [5,5]}"), std::string::npos);
}

TEST(SemiNaiveTest, StratifiedNegationAcrossStrata) {
  std::string out = RunText(
      "a(X) :- base(X) .\n"
      "b(X) :- base(X), not a(X) .\n"
      "c(X) :- base2(X), not a(X) .\n"
      "base(x)@[0,5] . base2(x)@[3,8] .");
  EXPECT_EQ(out.find("b(x)"), std::string::npos);
  EXPECT_NE(out.find("c(x)@{(5,8]}"), std::string::npos);
}

TEST(SemiNaiveTest, AggregationFeedsRecursion) {
  // The contract's event->skew shape: aggregate once, then chain.
  std::string out = RunText(
      "event(msum(S)) :- c(A, S) .\n"
      "skew(K) :- diamondminus skew(K), not event(_) .\n"
      "skew(K) :- diamondminus skew(X), event(S), K = X + S .\n"
      "skew(10.0)@0 . c(a, 2.0)@3 . c(b, 3.0)@3 . c(a, -1.0)@5 .",
      Window(0, 6));
  EXPECT_NE(out.find("skew(10)@{[0,0] [1,1] [2,2]}"), std::string::npos);
  EXPECT_NE(out.find("skew(15)@{[3,3] [4,4]}"), std::string::npos);
  EXPECT_NE(out.find("skew(14)@{[5,5] [6,6]}"), std::string::npos);
}

TEST(SemiNaiveTest, NaiveAndSemiNaiveAgree) {
  const char* text =
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, a)@[4,6] .\n"
      "deposit(x)@1 . close(x)@9 .";
  // The naive side is the test oracle's own naive loop.
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  Database naive = unit->database;
  ASSERT_TRUE(OracleMaterialize(unit->program, &naive, Window(0, 12), nullptr,
                                OracleLoop::kNaive)
                  .ok());
  EXPECT_EQ(RunText(text, Window(0, 12)), naive.ToString());
}

TEST(SemiNaiveTest, AccelerationOnAndOffAgree) {
  const char* text =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "margin(A, M) :- deposit2(A, M) .\n"
      "margin(A, M) :- diamondminus margin(A, M), not change(A), open(A) .\n"
      "deposit(x)@1 . deposit2(x, 5.0)@1 . change(x)@4 . close(x)@7 .\n"
      "deposit(y)@2 . deposit2(y, 9.0)@2 . close(y)@11 .";
  // The reference is the test oracle, which walks chains tick by tick.
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  Database oracle = unit->database;
  ASSERT_TRUE(OracleMaterialize(unit->program, &oracle, Window(0, 12)).ok());
  EngineStats stats;
  EXPECT_EQ(RunText(text, Window(0, 12), &stats), oracle.ToString());
  EXPECT_GT(stats.chain_extensions, 0u);
}

TEST(SemiNaiveTest, MaxIntervalsBudget) {
  auto unit = Parser::Parse(
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A) .\n"
      "deposit(x)@0 .");
  EngineOptions options = Window(0, 1'000'000);
  options.max_intervals = 1000;
  Database db = unit->database;
  Status status = Materialize(unit->program, &db, options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(SemiNaiveTest, InvalidProgramsRejectedUpfront) {
  // The Program overload compiles inside the timed run, so a program that
  // fails to compile still gets its stop diagnostics and wall time, and
  // leaves the database as it was.
  auto unsafe = Parser::Parse("p(X, Y) :- q(X) .\n q(a)@1 . q(b)@2 .");
  Database db1 = unsafe->database;
  EngineStats stats;
  stats.rounds = 99;
  EXPECT_EQ(Materialize(unsafe->program, &db1, {}, &stats).code(),
            StatusCode::kUnsafeRule);
  EXPECT_EQ(stats.stop_reason, StopReason::kError);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(stats.intervals_at_stop, 2u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_EQ(db1.ToString(), unsafe->database.ToString());

  auto unstrat = Parser::Parse(
      "p(X) :- b(X), not q(X) .\n"
      "q(X) :- b(X), not p(X) .\n b(a)@1 .");
  Database db2 = unstrat->database;
  EXPECT_EQ(Materialize(unstrat->program, &db2).code(),
            StatusCode::kNotStratifiable);

  auto bad_window = Parser::Parse("p(X) :- q(X) .\n q(a)@1 .");
  EngineOptions options = Window(10, 5);
  Database db3 = bad_window->database;
  EXPECT_EQ(Materialize(bad_window->program, &db3, options).code(),
            StatusCode::kInvalidArgument);
}

TEST(SemiNaiveTest, StatsPopulated) {
  EngineStats stats;
  RunText("q(X) :- p(X) .\n p(a)@[1,3] .", EngineOptions{}, &stats);
  EXPECT_GE(stats.num_strata, 1);
  EXPECT_GE(stats.rule_evaluations, 1u);
  EXPECT_EQ(stats.derived_intervals, 1u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  EXPECT_NE(stats.ToString().find("derived_intervals=1"), std::string::npos);
}

TEST(SemiNaiveTest, RuleCompileStats) {
  const char* text =
      "q(X) :- p(X) .\n"
      "q(X) :- boxminus[1,1] q(X), not s(X) .\n"
      "p(a)@1 . s(a)@6 .";
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);

  EngineStats compiled;
  RunText(text, options, &compiled);
  EXPECT_EQ(compiled.compiled_rules, 2u);
  EXPECT_GE(compiled.vm_dispatches, 1u);
  EXPECT_GE(compiled.vm_recompiles, 1u);
  EXPECT_NE(compiled.ToString().find("compiled_rules="), std::string::npos);
}

TEST(SemiNaiveTest, MonotoneInsertOnlySemantics) {
  // Re-running materialization on an already-materialized database is a
  // no-op (the chase is monotone and idempotent).
  auto unit = Parser::Parse(
      "q(X) :- p(X) .\n r(X) :- q(X), not s(X) .\n p(a)@[1,3] . s(a)@2 .");
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db).ok());
  std::string first = db.ToString();
  ASSERT_TRUE(Materialize(unit->program, &db).ok());
  EXPECT_EQ(db.ToString(), first);
}

TEST(SemiNaiveTest, StatsReportWallTimePerStratum) {
  EngineStats stats;
  RunText("a(X) :- p(X) .\n"
          "b(X) :- p(X) .\n"
          "c(X) :- a(X), not d(X) .\n"
          "p(x)@[0,5] . p(y)@[2,9] . d(y)@[0,1] .\n",
          {}, &stats);
  EXPECT_GE(stats.num_strata, 2);
  EXPECT_EQ(stats.stratum_wall_seconds.size(),
            static_cast<size_t>(stats.num_strata));
  EXPECT_GE(stats.rule_evaluations, 3u);
}

}  // namespace
}  // namespace dmtl
