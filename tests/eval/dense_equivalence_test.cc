// The memory-architecture features must be invisible in outputs: with
// enable_dense_timeline / enable_arena_alloc on versus off, the same
// program must produce byte-identical database
// text, Series() output, and full provenance (attribution included - the
// features never change the schedule). Covered over randomized synthetic
// programs, the shipped ETH-PERP contract, and directed cases proving the
// rational fallback: non-integral rule bounds or facts must select
// timeline=rational and still agree byte for byte.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

struct RunResult {
  std::string db_text;
  std::string series_text;
  std::string provenance_text;
  bool timeline_dense = false;
  size_t arena_allocs = 0;
};

RunResult RunOnce(const Program& program, const Database& input,
              EngineOptions options, bool dense, bool arena,
              std::string_view series_pred) {
  std::vector<DerivationRecord> provenance;
  options.provenance = &provenance;
  options.enable_dense_timeline = dense;
  options.enable_arena_alloc = arena;
  Database db = input;
  EngineStats stats;
  Status status = Materialize(program, &db, options, &stats);
  EXPECT_TRUE(status.ok()) << status << " (dense=" << dense
                           << " arena=" << arena << ")";
  RunResult out;
  out.db_text = db.ToString();
  std::ostringstream series;
  for (const auto& [t, tuple] : Reasoner::Series(db, series_pred)) {
    series << t << " " << TupleToString(tuple) << "\n";
  }
  out.series_text = series.str();
  std::ostringstream prov;
  for (const DerivationRecord& record : provenance) {
    prov << record.ToString(program) << "\n";
  }
  out.provenance_text = prov.str();
  out.timeline_dense = stats.timeline_dense;
  out.arena_allocs = stats.arena_allocs;
  return out;
}

// On-vs-off. `expect_dense` asserts which timeline
// the eligibility check must select when the option is on.
void ExpectFeaturesInvisible(const Program& program, const Database& input,
                             const EngineOptions& options,
                             std::string_view series_pred, bool expect_dense,
                             const std::string& label) {
  if (std::getenv("DMTL_DISABLE_DENSE_TIMELINE") != nullptr) {
    // The environment kill-switch outranks the option, so eligibility must
    // land on the generic timeline; the on/off equivalence checks still run.
    expect_dense = false;
  }
  RunResult off = RunOnce(program, input, options, /*dense=*/false,
                          /*arena=*/false, series_pred);
  EXPECT_FALSE(off.timeline_dense) << label;
  for (bool dense : {false, true}) {
    for (bool arena : {false, true}) {
      if (!dense && !arena) continue;
      RunResult on = RunOnce(program, input, options, dense, arena, series_pred);
      std::string what = label + " (dense=" + std::to_string(dense) +
                         " arena=" + std::to_string(arena) + ")";
      EXPECT_EQ(off.db_text, on.db_text) << what << ": database diverged";
      EXPECT_EQ(off.series_text, on.series_text)
          << what << ": Series() diverged";
      EXPECT_EQ(off.provenance_text, on.provenance_text)
          << what << ": provenance diverged";
      if (dense) {
        EXPECT_EQ(on.timeline_dense, expect_dense)
            << what << ": eligibility selected the wrong timeline";
      }
    }
  }
}

// Same safe fragment the differential tests fuzz: stratified
// recursion through boxminus/diamondminus with negated guards, over
// integral facts and bounds.
class ProgramFuzzer {
 public:
  explicit ProgramFuzzer(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::ostringstream out;
    int num_edb = 2 + Pick(2);
    int num_derived = 2 + Pick(3);
    for (int d = 0; d < num_derived; ++d) {
      out << "d" << d << "(X) :- " << LowerAtom(d, num_edb) << Guard(num_edb)
          << " .\n";
      int step = 1 + Pick(2);
      const char* op = Pick(2) == 0 ? "boxminus" : "diamondminus";
      out << "d" << d << "(X) :- " << op << "[" << step << "," << step
          << "] d" << d << "(X), not p0(X) .\n";
      if (Pick(2) == 0) {
        out << "d" << d << "(X) :- diamondminus[0," << (1 + Pick(3)) << "] "
            << LowerAtom(d, num_edb) << " .\n";
      }
    }
    for (int p = 0; p < num_edb; ++p) {
      int facts = 1 + Pick(4);
      for (int f = 0; f < facts; ++f) {
        int lo = Pick(12);
        int hi = lo + Pick(4);
        out << "p" << p << "(c" << Pick(3) << ")@[" << lo << "," << hi
            << "] .\n";
      }
    }
    return out.str();
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }

  std::string LowerAtom(int d, int num_edb) {
    if (d > 0 && Pick(2) == 0) {
      return "d" + std::to_string(Pick(d)) + "(X)";
    }
    return "p" + std::to_string(Pick(num_edb)) + "(X)";
  }

  std::string Guard(int num_edb) {
    switch (Pick(3)) {
      case 0:
        return "";
      case 1:
        return ", not p" + std::to_string(Pick(num_edb)) + "(X)";
      default:
        return ", diamondminus[0,2] p" + std::to_string(Pick(num_edb)) +
               "(X)";
    }
  }

  std::mt19937_64 rng_;
};

class DenseFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseFuzzTest, FeaturesAreInvisible) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectFeaturesInvisible(unit->program, unit->database, options, "d0",
                          /*expect_dense=*/true, "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(DenseEquivalenceTest, ShippedContractProgram) {
  auto program = EthPerpProgram();
  ASSERT_TRUE(program.ok()) << program.status();
  auto db = Parser::ParseDatabase(
      "start()@0 . skew(1000.0)@0 . frs(0.0)@0 .\n"
      "price(3000.0)@[0, 12] .\n"
      "tranM(acc, 1000.0)@1 .\n"
      "modPos(acc, 0.5)@3 .\n"
      "tranM(acc, 250.0)@5 .\n"
      "closePos(acc)@9 .\n"
      "withdraw(acc)@11 .\n");
  ASSERT_TRUE(db.ok()) << db.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(12);
  ExpectFeaturesInvisible(*program, *db, options, "margin",
                          /*expect_dense=*/true, "eth_perp contract");
}

TEST(DenseEquivalenceTest, RationalRuleBoundFallsBack) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[0,3/2] p(X) .\n"
      "r(X) :- boxminus[1,1] q(X), not p(X) .\n"
      "p(a)@[0,4] .\n"
      "p(b)@[2,6] .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);
  ExpectFeaturesInvisible(unit->program, unit->database, options, "q",
                          /*expect_dense=*/false, "rational rule bound");
}

TEST(DenseEquivalenceTest, RationalFactEndpointFallsBack) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "p(a)@[0,7/2] .\n"
      "p(b)@[2,6] .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);
  ExpectFeaturesInvisible(unit->program, unit->database, options, "q",
                          /*expect_dense=*/false, "rational fact endpoint");
}

TEST(DenseEquivalenceTest, RationalHorizonFallsBack) {
  auto unit = Parser::Parse(
      "q(X) :- diamondminus[1,2] p(X) .\n"
      "p(a)@[0,4] .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(19, 2);
  ExpectFeaturesInvisible(unit->program, unit->database, options, "q",
                          /*expect_dense=*/false, "rational horizon");
}

TEST(DenseEquivalenceTest, ArenaStatsAreReportedWhenArmed) {
  if (std::getenv("DMTL_DISABLE_ARENA_ALLOC") != nullptr) {
    GTEST_SKIP() << "arena allocation disabled by environment";
  }
  ProgramFuzzer fuzzer(3);
  auto unit = Parser::Parse(fuzzer.Generate());
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  RunResult on = RunOnce(unit->program, unit->database, options,
                         /*dense=*/true, /*arena=*/true, "d0");
  RunResult off = RunOnce(unit->program, unit->database, options,
                          /*dense=*/true, /*arena=*/false, "d0");
  EXPECT_EQ(off.arena_allocs, 0u);
  // The fuzz programs derive enough transient sets to spill at least once.
  EXPECT_GT(on.arena_allocs, 0u);
}

}  // namespace
}  // namespace dmtl
