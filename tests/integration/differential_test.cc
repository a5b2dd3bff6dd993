// Randomized differential testing of the engine: generate random (but
// stratifiable and safe by construction) temporal programs and fact
// databases, then check that all three evaluation strategies - the engine's
// semi-naive run with chain acceleration, and the test oracle's semi-naive
// and naive re-evaluations (tests/testing/oracle_eval.h) - produce the
// exact same materialization. This is the safety net under the engine's two
// main optimizations.

#include <gtest/gtest.h>


#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "tests/testing/oracle_eval.h"
#include "tests/testing/program_fuzzer.h"

namespace dmtl {
namespace {

EngineOptions Window() {
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  return options;
}

std::string Engine(const Parser::ParsedUnit& unit) {
  Database db = unit.database;
  Status status = Materialize(unit.program, &db, Window());
  EXPECT_TRUE(status.ok()) << status;
  return db.ToString();
}

std::string Oracle(const Parser::ParsedUnit& unit, OracleLoop loop) {
  Database db = unit.database;
  Status status =
      OracleMaterialize(unit.program, &db, Window(), nullptr, loop);
  EXPECT_TRUE(status.ok()) << status;
  return db.ToString();
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllStrategiesAgree) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;

  std::string engine = Engine(*unit);
  std::string oracle = Oracle(*unit, OracleLoop::kSemiNaive);
  std::string naive = Oracle(*unit, OracleLoop::kNaive);
  EXPECT_EQ(engine, oracle) << "engine diverged from the oracle on:\n"
                            << text;
  EXPECT_EQ(oracle, naive) << "semi-naive diverged from naive on:\n" << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

// A directed differential case: interacting chains with different steps
// (step-2 chains hop over step-1 blockers).
TEST(DifferentialDirectedTest, MixedStepChains) {
  const char* text =
      "d0(X) :- p0(X) .\n"
      "d0(X) :- boxminus[2,2] d0(X), not p1(X) .\n"
      "d1(X) :- d0(X) .\n"
      "d1(X) :- diamondminus[1,1] d1(X), not p0(X) .\n"
      "p0(a)@[0,1] . p1(a)@7 . p0(b)@4 .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(Engine(*unit), Oracle(*unit, OracleLoop::kSemiNaive));
  // Spot-check the step-2 hop: d0(a) holds at 0..1, then 2,3 via the
  // chain, 4,5, skips nothing until the blocker at 7 kills the odd chain
  // branch landing there.
  auto parsed = Parser::Parse(text);
  Database db = parsed->database;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);
  ASSERT_TRUE(Materialize(parsed->program, &db, options).ok());
  EXPECT_TRUE(db.Holds("d0", {Value::Symbol("a")}, Rational(6)));
  EXPECT_FALSE(db.Holds("d0", {Value::Symbol("a")}, Rational(7)));
  EXPECT_TRUE(db.Holds("d0", {Value::Symbol("a")}, Rational(8)));
}

}  // namespace
}  // namespace dmtl
