#include "src/eval/chain_accel.h"

#include <gtest/gtest.h>

#include "src/analysis/stratifier.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

std::optional<ChainAccelerator::ChainInfo> DetectIn(const char* text,
                                                    size_t rule_index) {
  auto program = Parser::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  auto strat = Stratify(*program);
  EXPECT_TRUE(strat.ok()) << strat.status();
  return ChainAccelerator::Detect(program->rules()[rule_index],
                                  strat->predicate_stratum);
}

TEST(ChainAccelTest, DetectsPaperChainShapes) {
  // Rule 2: isOpen persistence.
  auto r2 = DetectIn(
      "isOpen(A) :- tranM(A, M) .\n"
      "isOpen(A) :- boxminus isOpen(A), not withdraw(A) .\n",
      1);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->step, Rational(1));
  EXPECT_EQ(r2->negated_guards.size(), 1u);
  EXPECT_TRUE(r2->positive_guards.empty());

  // Rule 13 shape: positive lower-stratum guard plus existential negation.
  auto r13 = DetectIn(
      "isOpen(A) :- tranM(A, M) .\n"
      "order(A, S) :- modPos(A, S) .\n"
      "position(A, S, N) :- init(A, S, N) .\n"
      "position(A, S, N) :- diamondminus position(A, S, N), "
      "not order(A, _), isOpen(A) .\n",
      3);
  ASSERT_TRUE(r13.has_value());
  EXPECT_EQ(r13->positive_guards.size(), 1u);
  EXPECT_EQ(r13->negated_guards.size(), 1u);
}

TEST(ChainAccelTest, DetectsFutureChains) {
  auto info = DetectIn(
      "p(A) :- seed(A) .\n"
      "p(A) :- boxplus[2,2] p(A), not stop(A) .\n",
      1);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->step, Rational(-2));
}

TEST(ChainAccelTest, RejectsNonChainShapes) {
  // Head/body argument mismatch.
  EXPECT_FALSE(DetectIn(
                   "p(A, B) :- seed(A, B) .\n"
                   "p(B, A) :- boxminus p(A, B) .\n",
                   1)
                   .has_value());
  // Non-punctual window.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus[0,2] p(A) .\n",
                   1)
                   .has_value());
  // Zero shift would not advance.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus[0,0] p(A) .\n",
                   1)
                   .has_value());
  // Builtins in the body.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), A > 0 .\n",
                   1)
                   .has_value());
  // Guard in the same stratum (mutual recursion).
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), q(A) .\n"
                   "q(A) :- boxminus p(A) .\n",
                   1)
                   .has_value());
  // A positive guard with a free variable multiplies bindings.
  EXPECT_FALSE(DetectIn(
                   "p(A) :- seed(A) .\n"
                   "p(A) :- boxminus p(A), g(A, X) .\n",
                   1)
                   .has_value());
}

// Differential property: for a family of generated chain programs, the
// accelerated materialization equals the test oracle's, which walks the
// chain tick by tick.
class ChainAccelDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainAccelDifferentialTest, AcceleratedEqualsNaiveChain) {
  int seed_time = GetParam();
  std::string text =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus open(A), not close(A) .\n"
      "deposit(x)@" + std::to_string(seed_time) + " .\n" +
      "deposit(x)@" + std::to_string(seed_time + 7) + " .\n" +
      "close(x)@" + std::to_string(seed_time + 4) + " .\n" +
      "close(x)@" + std::to_string(seed_time + 11) + " .";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(seed_time + 20);
  Database db_on = unit->database;
  Database oracle = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db_on, options).ok());
  ASSERT_TRUE(OracleMaterialize(unit->program, &oracle, options).ok());
  EXPECT_EQ(db_on.ToString(), oracle.ToString());
  // The chain restarts after the second deposit and stops at each close.
  EXPECT_TRUE(db_on.Holds("open", {Value::Symbol("x")},
                          Rational(seed_time + 3)));
  EXPECT_FALSE(db_on.Holds("open", {Value::Symbol("x")},
                           Rational(seed_time + 4)));
  EXPECT_TRUE(db_on.Holds("open", {Value::Symbol("x")},
                          Rational(seed_time + 10)));
  EXPECT_FALSE(db_on.Holds("open", {Value::Symbol("x")},
                           Rational(seed_time + 12)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainAccelDifferentialTest,
                         ::testing::Values(1, 2, 5, 13));

// The time mirror t -> horizon - t of every stored interval.
Database Mirror(const Database& db, const Rational& horizon) {
  auto mirror = [&](const Bound& b) {
    Bound out = b;
    if (!b.infinite) out.value = horizon - b.value;
    return out;
  };
  Database out;
  for (const auto& [pred, rel] : db.relations()) {
    for (const auto& [tuple, set] : rel.data()) {
      for (const Interval& iv : set) {
        out.Insert(pred, tuple, *Interval::Make(mirror(iv.hi()),
                                                mirror(iv.lo())));
      }
    }
  }
  return out;
}

TEST(ChainAccelTest, FutureChainMirrorsPastChain) {
  // One guarded chain, past-directed and mirrored in time. The future
  // chain walks with a negative step, and its interior-of-a-run probes
  // move through the allowed set against the walk direction; it must
  // derive the mirror image of the past chain with as many extensions,
  // and both must match the test oracle.
  const char* past =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxminus[1,1] open(A), not close(A) .\n"
      "deposit(x)@2 . deposit(x)@30 . close(x)@9 . close(x)@[14,15] .\n"
      "close(x)@40 .\n";
  const char* future =
      "open(A) :- deposit(A) .\n"
      "open(A) :- boxplus[1,1] open(A), not close(A) .\n"
      "deposit(x)@58 . deposit(x)@30 . close(x)@51 . close(x)@[45,46] .\n"
      "close(x)@20 .\n";
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(60);
  Database results[2];
  size_t extensions[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    auto unit = Parser::Parse(i == 0 ? past : future);
    ASSERT_TRUE(unit.ok()) << unit.status();
    results[i] = unit->database;
    Database oracle = unit->database;
    EngineStats stats;
    ASSERT_TRUE(
        Materialize(unit->program, &results[i], options, &stats).ok());
    ASSERT_TRUE(OracleMaterialize(unit->program, &oracle, options).ok());
    EXPECT_EQ(results[i].ToString(), oracle.ToString()) << i;
    extensions[i] = stats.chain_extensions;
  }
  EXPECT_EQ(Mirror(results[0], Rational(60)).ToString(),
            results[1].ToString());
  EXPECT_GT(extensions[0], 0u);
  EXPECT_EQ(extensions[0], extensions[1]);
}

TEST(ChainAccelTest, IntervalSeedsWalkByShifting) {
  // A seed holding over an interval propagates as a widening band.
  auto unit = Parser::Parse(
      "p(A) :- seed(A) .\n"
      "p(A) :- boxminus p(A), not stop(A) .\n"
      "seed(x)@[0,3] . stop(x)@[6,100] .");
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db, options).ok());
  // p holds on [0,3], then shifted copies merge: [0,4], [0,5]; blocked at 6.
  EXPECT_TRUE(db.Holds("p", {Value::Symbol("x")}, Rational(5)));
  EXPECT_FALSE(db.Holds("p", {Value::Symbol("x")}, Rational(6)));
}

TEST(ChainAccelTest, OverlappingIntervalSeedsStopAtDerivedCoverage) {
  // Twenty dense seeds on one tuple, ten steps apart: each one's walk runs
  // into the stretch the seed ahead of it covers. The dense seeds walk as
  // one frontier that stops at the tuple's stored coverage, so only the
  // last seed walks on to the blocker. An engine that walked each seed on
  // its own, stopping only at what that seed's own walk covered, re-walked
  // the stretches ahead: 20910 extensions on this program.
  std::string text =
      "p(A) :- seed(A) .\n"
      "p(A) :- boxminus p(A), not stop(A) .\n"
      "stop(x)@[205,220] .\n";
  for (int k = 0; k < 20; ++k) {
    text += "seed(x)@[" + std::to_string(10 * k) + "," +
            std::to_string(10 * k) + ".5] .\n";
  }
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(220);
  Database db = unit->database;
  Database oracle = unit->database;
  EngineStats stats;
  ASSERT_TRUE(Materialize(unit->program, &db, options, &stats).ok());
  ASSERT_TRUE(OracleMaterialize(unit->program, &oracle, options).ok());
  EXPECT_EQ(db.ToString(), oracle.ToString());
  EXPECT_TRUE(db.Holds("p", {Value::Symbol("x")}, Rational(204)));
  EXPECT_FALSE(db.Holds("p", {Value::Symbol("x")}, Rational(205)));
  EXPECT_GT(stats.chain_extensions, 0u);
  EXPECT_LE(stats.chain_extensions, 165u);
}

// Point-grid guards. The guard g(A) is kept alive by a punctual persistence
// rule, so it holds on isolated points and every allowed component of p's
// chain is a single point - the shape of the paper's rules 13, 35 and 39,
// whose guard isOpen(A) is such a grid. As in rule 13, p's rule also negates
// a predicate built on g (halt), which puts g strictly below p's stratum and
// makes the rule a chain. Fact times are in half units so a guard grid can
// sit off the chain's phase.
struct GridFact {
  const char* pred;
  int lo_half;
  int hi_half;
};

struct PointGridCase {
  const char* name;
  std::vector<GridFact> facts;
  int horizon;  // the window is [0, horizon]
  // Counts, equal for the past chain and its mirror, of the engine whose
  // chain batches stopped at the end of each allowed component (one
  // emission per guard point): the extensions stay, the bulk merges fall.
  size_t parent_extensions;
  uint64_t parent_bulk_merges;
};

void PrintTo(const PointGridCase& c, std::ostream* os) { *os << c.name; }

std::string HalfTime(int half) {
  std::string out = std::to_string(half / 2);
  if (half % 2 != 0) out += ".5";
  return out;
}

// The chain program over `c`'s facts; `future` writes its time mirror
// t -> horizon - t, whose chains walk with a negative step.
std::string PointGridProgram(const PointGridCase& c, bool future) {
  std::string text =
      future ? "g(A) :- start(A) .\n"
               "g(A) :- boxplus[1,1] g(A), not stop(A) .\n"
               "halt(A) :- g(A), block(A) .\n"
               "p(A) :- seed(A) .\n"
               "p(A) :- diamondplus[1,1] p(A), g(A), not halt(A) .\n"
             : "g(A) :- start(A) .\n"
               "g(A) :- boxminus[1,1] g(A), not stop(A) .\n"
               "halt(A) :- g(A), block(A) .\n"
               "p(A) :- seed(A) .\n"
               "p(A) :- diamondminus[1,1] p(A), g(A), not halt(A) .\n";
  // block sits off every guard grid, so halt stays empty.
  std::vector<GridFact> facts = c.facts;
  facts.push_back({"block", 2 * c.horizon - 1, 2 * c.horizon - 1});
  for (const GridFact& f : facts) {
    int lo = f.lo_half;
    int hi = f.hi_half;
    if (future) {
      lo = 2 * c.horizon - f.hi_half;
      hi = 2 * c.horizon - f.lo_half;
    }
    text += std::string(f.pred) + "(x)@[" + HalfTime(lo) + "," +
            HalfTime(hi) + "] .\n";
  }
  return text;
}

class PointGridChainTest : public ::testing::TestWithParam<PointGridCase> {};

TEST_P(PointGridChainTest, BatchesAcrossGuardPoints) {
  const PointGridCase& c = GetParam();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(c.horizon);
  Database results[2];
  EngineStats stats[2];
  for (int i = 0; i < 2; ++i) {
    auto unit = Parser::Parse(PointGridProgram(c, i == 1));
    ASSERT_TRUE(unit.ok()) << unit.status();
    results[i] = unit->database;
    Database oracle = unit->database;
    ASSERT_TRUE(
        Materialize(unit->program, &results[i], options, &stats[i]).ok());
    ASSERT_TRUE(OracleMaterialize(unit->program, &oracle, options).ok());
    EXPECT_EQ(results[i].ToString(), oracle.ToString()) << i;
    EXPECT_EQ(stats[i].chain_extensions, c.parent_extensions) << i;
    EXPECT_LT(stats[i].bulk_merges, c.parent_bulk_merges) << i;
  }
  EXPECT_EQ(Mirror(results[0], Rational(c.horizon)).ToString(),
            results[1].ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PointGridChainTest,
    ::testing::Values(
        // One unbroken guard grid, 0..39.
        PointGridCase{"contiguous",
                      {{"start", 0, 0}, {"stop", 80, 80}, {"seed", 6, 6}},
                      60,
                      146,
                      37},
        // The guard misses the point 20: the seed at 3 stops at 19 and the
        // seed at 25 starts afresh; a walk hopping the gap would derive
        // 20..24.
        PointGridCase{"gap",
                      {{"start", 0, 0},
                       {"start", 42, 42},
                       {"stop", 40, 40},
                       {"stop", 80, 80},
                       {"seed", 6, 6},
                       {"seed", 50, 50}},
                      60,
                      126,
                      37},
        // The guard grid sits half a step off the chain's grid: integer
        // seeds never extend, the seed at 3.5 walks the guard's phase.
        PointGridCase{"offset_phase",
                      {{"start", 1, 1},
                       {"stop", 80, 80},
                       {"seed", 6, 6},
                       {"seed", 7, 7}},
                      60,
                      224,
                      59},
        // Two guard phases interleave: between two of the chain's grid
        // points lies a guard point holding none of them, which the walk
        // must step over.
        PointGridCase{"interleaved_phases",
                      {{"start", 0, 0},
                       {"start", 1, 1},
                       {"stop", 80, 81},
                       {"seed", 6, 6}},
                      60,
                      222,
                      42},
        // A grid longer than one batch: the walk resumes mid-grid after the
        // batch cap, past a gap at 2500.
        PointGridCase{"longer_than_a_batch",
                      {{"start", 0, 0},
                       {"start", 5002, 5002},
                       {"stop", 5000, 5000},
                       {"seed", 2, 2},
                       {"seed", 5010, 5010}},
                      3000,
                      11974,
                      3003}),
    [](const ::testing::TestParamInfo<PointGridCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dmtl
