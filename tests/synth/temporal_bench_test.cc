#include "src/synth/temporal_bench.h"

#include <gtest/gtest.h>

#include "src/analysis/stratifier.h"
#include "src/engine/reasoner.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

std::vector<SynthPattern> AllPatterns() {
  return {SynthPattern::kLinearChain, SynthPattern::kStarJoin,
          SynthPattern::kTransitiveClosure, SynthPattern::kWindowCascade,
          SynthPattern::kSelfChain};
}

class SynthPatternTest : public ::testing::TestWithParam<SynthPattern> {};

TEST_P(SynthPatternTest, GeneratesValidMaterializablePrograms) {
  SynthConfig config;
  config.pattern = GetParam();
  config.depth = 4;
  config.num_facts = 40;
  config.timeline = 60;
  config.seed = 3;
  auto synth = GenerateTemporalBenchmark(config);
  ASSERT_TRUE(synth.ok()) << synth.status();
  auto unit = Parser::Parse(synth->text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\n" << synth->text;
  ASSERT_TRUE(Stratify(unit->program).ok());

  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(synth->horizon);
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db, options).ok());
  // The output predicate produced something (generous fact volume).
  const Relation* out = db.Find(synth->output_predicate);
  ASSERT_NE(out, nullptr) << synth->output_predicate;
  EXPECT_GT(out->NumIntervals(), 0u);
}

TEST_P(SynthPatternTest, EvaluationStrategiesAgree) {
  SynthConfig config;
  config.pattern = GetParam();
  config.depth = 3;
  config.num_facts = 25;
  config.timeline = 40;
  config.seed = 9;
  auto synth = GenerateTemporalBenchmark(config);
  ASSERT_TRUE(synth.ok());
  auto unit = Parser::Parse(synth->text);
  ASSERT_TRUE(unit.ok());
  EngineOptions base;
  base.min_time = Rational(0);
  base.max_time = Rational(synth->horizon);
  Database a = unit->database;
  Database b = unit->database;
  Database c = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &a, base).ok());
  // The references are the test oracle's semi-naive and naive loops.
  ASSERT_TRUE(OracleMaterialize(unit->program, &b, base).ok());
  ASSERT_TRUE(
      OracleMaterialize(unit->program, &c, base, nullptr, OracleLoop::kNaive)
          .ok());
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(b.ToString(), c.ToString());
}

INSTANTIATE_TEST_SUITE_P(Patterns, SynthPatternTest,
                         ::testing::ValuesIn(AllPatterns()));

TEST(SynthBenchTest, DeterministicUnderSeed) {
  SynthConfig config;
  config.pattern = SynthPattern::kTransitiveClosure;
  auto a = GenerateTemporalBenchmark(config);
  auto b = GenerateTemporalBenchmark(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->text, b->text);
  config.seed = 2;
  auto c = GenerateTemporalBenchmark(config);
  EXPECT_NE(a->text, c->text);
}

TEST(SynthBenchTest, RejectsInvalidConfigs) {
  SynthConfig config;
  config.depth = 0;
  EXPECT_FALSE(GenerateTemporalBenchmark(config).ok());
  config = SynthConfig();
  config.num_facts = 0;
  EXPECT_FALSE(GenerateTemporalBenchmark(config).ok());
  config = SynthConfig();
  config.timeline = 0;
  EXPECT_FALSE(GenerateTemporalBenchmark(config).ok());
}

TEST(SynthBenchTest, LinearChainSemanticsSpotCheck) {
  // A single base fact at a known point: depth-d chain with window w puts
  // the output exactly on the [t, t + (d-1)*w] dilation.
  SynthConfig config;
  config.pattern = SynthPattern::kLinearChain;
  config.depth = 3;
  config.window = 2;
  config.num_facts = 1;
  config.num_constants = 1;
  config.timeline = 1;  // forces the fact near t=0
  auto synth = GenerateTemporalBenchmark(config);
  ASSERT_TRUE(synth.ok());
  auto unit = Parser::Parse(synth->text);
  ASSERT_TRUE(unit.ok());
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(synth->horizon);
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db, options).ok());
  // base(n0)@[lo, hi] -> r3 over [lo, hi + 4].
  const Relation* base = db.Find("base");
  ASSERT_NE(base, nullptr);
  const auto& [tuple, set] = *base->data().begin();
  Interval fact = *set.begin();
  const Relation* out = db.Find("r3");
  ASSERT_NE(out, nullptr);
  const IntervalSet* r3 = out->Find(tuple);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(*r3, IntervalSet(Interval::Closed(
                     fact.lo().value, fact.hi().value + Rational(4))));
}

}  // namespace
}  // namespace dmtl
