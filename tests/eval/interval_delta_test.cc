// Interval-delta propagation equivalence and soundness: materializing with
// enable_interval_deltas on and off must produce identical database
// contents, identical query Series, and cover the same derived intervals in
// provenance. Memoized operator reads have round-boundary snapshot
// semantics, so provenance round/rule attribution - and the rounds/derived
// counters - may legitimately shift on programs with intra-round feeding;
// coverage (the union of derived pieces per (predicate, tuple)) is the
// invariant, exactly as in join_plan_test.
//
// Also covers the memo-specific corners: punctual-box paths refresh in
// place while non-punctual boxes invalidate, since/until bodies never
// memoize (their LHS vacuity must survive), and the memo counters surface
// through EngineStats.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

struct RunResult {
  std::string db_text;
  std::string provenance_coverage;
};

std::string ProvenanceCoverage(const std::vector<DerivationRecord>& records) {
  std::map<std::pair<PredicateId, std::string>, IntervalSet> coverage;
  for (const DerivationRecord& record : records) {
    coverage[{record.predicate, TupleToString(record.tuple)}].Insert(
        record.piece);
  }
  std::ostringstream out;
  for (const auto& [key, set] : coverage) {
    out << key.first << " " << key.second << " @ " << set.ToString() << "\n";
  }
  return out.str();
}

RunResult MaterializeWithDeltas(const Program& program, const Database& input,
                                EngineOptions options, bool deltas) {
  std::vector<DerivationRecord> provenance;
  options.enable_interval_deltas = deltas;
  options.provenance = &provenance;
  Database db = input;
  EngineStats stats;
  Status status = Materialize(program, &db, options, &stats);
  EXPECT_TRUE(status.ok()) << status << " (deltas=" << deltas << ")";
  RunResult out;
  out.db_text = db.ToString();
  out.provenance_coverage = ProvenanceCoverage(provenance);
  return out;
}

// Deltas on must equal deltas off - same database, same provenance
// coverage.
void ExpectDeltaEquivalence(const Program& program, const Database& input,
                            const EngineOptions& options,
                            const std::string& label) {
  RunResult on = MaterializeWithDeltas(program, input, options, true);
  RunResult off = MaterializeWithDeltas(program, input, options, false);
  EXPECT_EQ(on.db_text, off.db_text) << label << ": database diverged";
  EXPECT_EQ(on.provenance_coverage, off.provenance_coverage)
      << label << ": provenance coverage diverged";
}

// The same safe fragment join_plan_test fuzzes
// (stratified negation, boxminus/diamondminus recursion, multi-literal
// joins), with deeper unary chains so refreshable and non-refreshable memo
// paths both occur.
class DeltaProgramFuzzer {
 public:
  explicit DeltaProgramFuzzer(uint64_t seed) : rng_(seed) {}

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
          << "] d" << d << "(X)" << Guard(num_edb) << " .\n";
      if (Pick(2) == 0) {
        // A two-operator chain over a lower atom: exercises path
        // memoization (punctual boxes refresh, ranged ones invalidate).
        const char* inner = Pick(2) == 0 ? "boxminus[1,1]" : "diamondminus";
        out << "d" << d << "(X) :- diamondminus[0," << (1 + Pick(3)) << "] "
            << inner << " " << LowerAtom(d, num_edb) << " .\n";
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

class DeltaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaFuzzTest, DeltasOnOffAgree) {
  DeltaProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectDeltaEquivalence(unit->program, unit->database, options,
                         "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(IntervalDeltaTest, RecursiveTransitiveClosureAgrees) {
  const char* text =
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- diamondminus[0,2] reach(X, Y), edge(Y, Z) .\n"
      "back(X, Y) :- reach(X, Y), not edge(X, Y) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, d)@[3,6] .\n"
      "edge(d, a)@[4,5] . edge(c, a)@[0,4] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectDeltaEquivalence(unit->program, unit->database, options,
                         "transitive closure");
}

TEST(IntervalDeltaTest, EthPerpSessionAgreesIncludingSeries) {
  WorkloadConfig config;
  config.name = "delta-eq";
  config.num_events = 24;
  config.num_trades = 5;
  config.duration_s = 600;
  config.initial_skew = -500.0;
  config.seed = 123;
  auto session = GenerateSession(config);
  ASSERT_TRUE(session.ok()) << session.status();
  auto program = EthPerpProgram({});
  ASSERT_TRUE(program.ok()) << program.status();
  Database input = SessionToDatabase(*session);
  EngineOptions options = SessionEngineOptions(*session);
  ExpectDeltaEquivalence(*program, input, options, "ETH-PERP session");

  // The contract-statement query surface must agree too: the value-change
  // series of the funding-rate and margin predicates.
  auto run = [&](bool deltas) {
    EngineOptions o = options;
    o.enable_interval_deltas = deltas;
    Database db = input;
    EXPECT_TRUE(Materialize(*program, &db, o).ok());
    return db;
  };
  Database with = run(true);
  Database without = run(false);
  for (const char* pred : {"frs", "margin", "fundingRate"}) {
    EXPECT_EQ(Reasoner::Series(with, pred), Reasoner::Series(without, pred))
        << "Series diverged for " << pred;
  }
}

// The memo must never be consulted under since/until: their left operand
// holds vacuously where the right does when 0 is in rho, even if the LHS
// atom never holds there. Same corner join planning guards against.
TEST(IntervalDeltaTest, SinceBodyAgrees) {
  const char* text =
      "r(X) :- s(X), p(X) since[0,2] q(X) .\n"
      "r(X) :- diamondminus[1,1] r(X), s(X) .\n"
      "s(a)@[0,10] .\n"
      "q(a)@[3,5] .\n"
      "p(a)@[100,200] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(300);
  ExpectDeltaEquivalence(unit->program, unit->database, options,
                         "since-LHS vacuity");
}

// Punctual boxes refresh in place; ranged boxes are erased and recomputed.
// Both paths must converge to the same fixpoint as the recomputing engine.
TEST(IntervalDeltaTest, BoxRefreshAndInvalidationAgree) {
  const char* text =
      "grow(X) :- diamondminus[1,1] grow(X), lim(X) .\n"
      "punct(X) :- boxminus[1,1] grow(X), lim(X) .\n"
      "ranged(X) :- boxminus[0,2] grow(X), lim(X) .\n"
      "grow(a)@[0,1] . lim(a)@[0,30] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(30);
  ExpectDeltaEquivalence(unit->program, unit->database, options,
                         "box refresh/invalidation");
}

// Memo counters must surface through EngineStats (and its ToString, which
// the CLI's --stats prints); with deltas disabled every counter stays zero.
TEST(IntervalDeltaTest, MemoCountersAreReported) {
  const char* text =
      "reach(X) :- diamondminus[1,1] reach(X), diamondminus[0,5] open(X) .\n"
      "slow(X) :- diamondminus[1,1] reach(X), boxminus[0,2] open(X) .\n"
      "open(a)@[0,100] . reach(a)@[0,0] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(30);
  options.enable_chain_acceleration = false;

  Database db = unit->database;
  EngineStats stats;
  ASSERT_TRUE(Materialize(unit->program, &db, options, &stats).ok());
  EXPECT_GE(stats.memo_hits, 1u);
  EXPECT_GE(stats.memo_misses, 1u);
  EXPECT_GE(stats.memo_refreshes, 1u);
  EXPECT_GE(stats.delta_intervals, 1u);
  EXPECT_NE(stats.ToString().find("memo_hits="), std::string::npos);
  EXPECT_NE(stats.ToString().find("delta_intervals="), std::string::npos);

  Database db_off = unit->database;
  EngineStats off;
  options.enable_interval_deltas = false;
  ASSERT_TRUE(Materialize(unit->program, &db_off, options, &off).ok());
  EXPECT_EQ(off.memo_hits, 0u);
  EXPECT_EQ(off.memo_misses, 0u);
  EXPECT_EQ(off.memo_refreshes, 0u);
  EXPECT_EQ(off.memo_invalidations, 0u);
  EXPECT_EQ(off.ToString().find("memo_hits="), std::string::npos);
  EXPECT_EQ(db.ToString(), db_off.ToString());
}

}  // namespace
}  // namespace dmtl
