// The sequential round executor: every fixpoint round is one ordered pass
// over the round's tasks (round 0 is one full task per rule, every later
// round one task per rule with a fresh delta), so a materialization
// is a pure function of (program, input, options). Two properties follow
// and are checked here on randomized programs (the safe fragment the
// differential test fuzzes) and on directed recursive and contract cases:
//
//  - re-running is byte-identical: database, Series(), the full
//    provenance text (rule and round attribution included) and the work
//    counters;
//  - provenance is exact: the pieces recorded per (predicate, tuple) are
//    pairwise disjoint (only newly covered pieces are recorded) and union
//    to exactly the derived coverage minus the input coverage.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/engine/reasoner.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "tests/testing/oracle_eval.h"
#include "tests/testing/program_fuzzer.h"

namespace dmtl {
namespace {

using CoverageMap = std::map<std::pair<PredicateId, std::string>, IntervalSet>;

struct RunResult {
  Database db;
  std::string db_text;
  std::string series_text;
  std::string provenance_text;
  std::vector<DerivationRecord> provenance;
  EngineStats stats;
};

std::string SeriesText(const Database& db, std::string_view pred) {
  std::ostringstream out;
  for (const auto& [t, tuple] : Reasoner::Series(db, pred)) {
    out << t << " " << TupleToString(tuple) << "\n";
  }
  return out.str();
}

RunResult MaterializeRun(const Program& program, const Database& input,
                         EngineOptions options, std::string_view series_pred) {
  RunResult out;
  options.provenance = &out.provenance;
  out.db = input;
  Status status = Materialize(program, &out.db, options, &out.stats);
  EXPECT_TRUE(status.ok()) << status;
  out.db_text = out.db.ToString();
  out.series_text = SeriesText(out.db, series_pred);
  std::ostringstream prov;
  for (const DerivationRecord& record : out.provenance) {
    prov << record.ToString(program) << "\n";
  }
  out.provenance_text = prov.str();
  return out;
}

std::string Render(const CoverageMap& coverage) {
  std::ostringstream out;
  for (const auto& [key, set] : coverage) {
    if (set.IsEmpty()) continue;
    out << key.first << " " << key.second << " @ " << set.ToString() << "\n";
  }
  return out.str();
}

// Union of provenance pieces per (predicate, tuple). Fails the test if two
// pieces of one key overlap: a point is recorded only when first covered.
CoverageMap ProvenanceCoverage(const std::vector<DerivationRecord>& records,
                               const std::string& label) {
  CoverageMap coverage;
  for (const DerivationRecord& record : records) {
    IntervalSet& set =
        coverage[{record.predicate, TupleToString(record.tuple)}];
    EXPECT_TRUE(set.Intersect(record.piece).IsEmpty())
        << label << ": piece " << record.piece.ToString()
        << " recorded twice for predicate " << record.predicate << " "
        << TupleToString(record.tuple);
    set.Insert(record.piece);
  }
  return coverage;
}

// Coverage of `db` minus coverage of `input`, per (predicate, tuple).
CoverageMap DerivedCoverage(const Database& db, const Database& input) {
  CoverageMap coverage;
  for (const auto& [pred, relation] : db.relations()) {
    const Relation* given = input.Find(pred);
    for (const auto& [tuple, set] : relation.data()) {
      const IntervalSet* base = given ? given->Find(tuple) : nullptr;
      coverage[{pred, TupleToString(tuple)}] =
          base ? set.Subtract(*base) : set;
    }
  }
  return coverage;
}

void ExpectRerunIdentical(const Program& program, const Database& input,
                          const EngineOptions& options,
                          std::string_view series_pred,
                          const std::string& label) {
  RunResult first = MaterializeRun(program, input, options, series_pred);
  RunResult second = MaterializeRun(program, input, options, series_pred);
  EXPECT_EQ(first.db_text, second.db_text) << label;
  EXPECT_EQ(first.series_text, second.series_text) << label;
  EXPECT_EQ(first.provenance_text, second.provenance_text)
      << label << ": provenance attribution is not reproducible";
  EXPECT_EQ(first.stats.rounds, second.stats.rounds) << label;
  EXPECT_EQ(first.stats.rule_evaluations, second.stats.rule_evaluations)
      << label;
  EXPECT_EQ(first.stats.derived_intervals, second.stats.derived_intervals)
      << label;
}

void ExpectProvenanceExact(const Program& program, const Database& input,
                           const EngineOptions& options,
                           const std::string& label) {
  RunResult run = MaterializeRun(program, input, options, "");
  EXPECT_EQ(Render(ProvenanceCoverage(run.provenance, label)),
            Render(DerivedCoverage(run.db, input)))
      << label << ": provenance does not cover exactly the derived facts";
}

// --- randomized synthetic programs (tests/testing/program_fuzzer.h) ------

EngineOptions FuzzOptions() {
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  return options;
}

class RoundExecutorFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    text_ = ProgramFuzzer(GetParam()).Generate();
    auto unit = Parser::Parse(text_);
    ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text_;
    unit_ = std::move(*unit);
  }

  std::string text_;
  Parser::ParsedUnit unit_;
};

TEST_P(RoundExecutorFuzzTest, RerunIsByteIdentical) {
  ExpectRerunIdentical(unit_.program, unit_.database, FuzzOptions(), "d0",
                       "fuzz program:\n" + text_);
}

TEST_P(RoundExecutorFuzzTest, ProvenanceCoversExactlyTheDerivedFacts) {
  ExpectProvenanceExact(unit_.program, unit_.database, FuzzOptions(),
                        "fuzz program:\n" + text_);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundExecutorFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

// A cycle of two predicates is no self-chain: the fixpoint takes one round
// per tick, so the executor runs many more delta rounds.
TEST(RoundExecutorTest, WithoutChainAccelerationRerunsAndStaysExact) {
  const std::string text =
      "a(A) :- deposit(A) .\n"
      "b(A) :- deposit(A) .\n"
      "a(A) :- boxminus b(A), not stop(A) .\n"
      "b(A) :- boxminus a(A) .\n"
      "deposit(x)@2 . deposit(y)@[5,6] . stop(y)@20 .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  const EngineOptions options = FuzzOptions();
  ExpectRerunIdentical(unit->program, unit->database, options, "a",
                       "two-predicate cycle:\n" + text);
  ExpectProvenanceExact(unit->program, unit->database, options,
                        "two-predicate cycle:\n" + text);
  EXPECT_GE(MaterializeRun(unit->program, unit->database, options, "a")
                .stats.rounds,
            38u);
}

// The test oracle's naive loop (tests/testing/oracle_eval.h) runs every
// rule as one full task each round: the engine's semi-naive run must derive
// the same facts with the same provenance coverage, and the oracle's own
// provenance must be exact.
TEST(RoundExecutorTest, NaiveTaskMatchesSemiNaiveCoverage) {
  std::string text = ProgramFuzzer(11).Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  RunResult semi =
      MaterializeRun(unit->program, unit->database, FuzzOptions(), "d0");
  Database naive = unit->database;
  std::vector<DerivationRecord> naive_provenance;
  ASSERT_TRUE(OracleMaterialize(unit->program, &naive, FuzzOptions(),
                                &naive_provenance, OracleLoop::kNaive)
                  .ok());
  EXPECT_EQ(semi.db_text, naive.ToString()) << text;
  EXPECT_EQ(semi.series_text, SeriesText(naive, "d0")) << text;
  const std::string naive_coverage =
      Render(ProvenanceCoverage(naive_provenance, "naive"));
  EXPECT_EQ(Render(ProvenanceCoverage(semi.provenance, "semi-naive")),
            naive_coverage)
      << text;
  EXPECT_EQ(naive_coverage, Render(DerivedCoverage(naive, unit->database)))
      << "naive oracle provenance does not cover exactly the derived "
         "facts:\n"
      << text;
}

// Mutually recursive rules in one stratum: a later rule sees an earlier
// rule's output from the same round, and that visibility is fixed by
// program order.
TEST(RoundExecutorTest, RecursiveTransitiveClosure) {
  const char* text =
      "reach(X, Y) :- edge(X, Y) .\n"
      "reach(X, Z) :- reach(X, Y), edge(Y, Z) .\n"
      "back(X, Y) :- reach(X, Y), not edge(X, Y) .\n"
      "edge(a, b)@[0,10] . edge(b, c)@[2,8] . edge(c, d)@[3,6] .\n"
      "edge(d, a)@[4,5] . edge(c, a)@[0,4] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectRerunIdentical(unit->program, unit->database, options, "reach",
                       "transitive closure");
  ExpectProvenanceExact(unit->program, unit->database, options,
                        "transitive closure");
  RunResult run =
      MaterializeRun(unit->program, unit->database, options, "reach");
  EXPECT_TRUE(run.db.Holds("reach", {Value::Symbol("a"), Value::Symbol("d")},
                           Rational(4)));
  EXPECT_TRUE(run.db.Holds("back", {Value::Symbol("a"), Value::Symbol("c")},
                           Rational(2)));
}

// The full contract program on a synthetic trading session - the paper's
// workload, including aggregates, negation, and the accelerated chains.
// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (13,103), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 52'000;

TEST(RoundExecutorTest, EthPerpSessionRerunsAndStaysExact) {
  WorkloadConfig config;
  config.name = "round-executor";
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
  options.max_intervals = kContractIntervalBudget;
  ExpectRerunIdentical(*program, input, options, "frs", "ETH-PERP session");
  ExpectProvenanceExact(*program, input, options, "ETH-PERP session");
}

// Every engine run is sequential: the stats line carries no pool width or
// per-round parallel counters, only the sequential round accounting.
TEST(RoundExecutorTest, StatsCarryOnlySequentialRoundCounters) {
  auto unit = Parser::Parse(
      "a(X) :- p(X) .\n"
      "b(X) :- p(X) .\n"
      "c(X) :- a(X), b(X) .\n"
      "p(x)@[0,5] . p(y)@[2,9] .\n");
  ASSERT_TRUE(unit.ok()) << unit.status();
  Database db = unit->database;
  EngineStats stats;
  ASSERT_TRUE(Materialize(unit->program, &db, {}, &stats).ok());
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_GE(stats.rule_evaluations, 3u);
  EXPECT_EQ(stats.stratum_wall_seconds.size(),
            static_cast<size_t>(stats.num_strata));
  std::string line = stats.ToString();
  EXPECT_NE(line.find("rounds="), std::string::npos) << line;
  EXPECT_EQ(line.find("threads="), std::string::npos) << line;
  EXPECT_EQ(line.find("parallel"), std::string::npos) << line;
  EXPECT_EQ(line.find("seq_rounds_forced"), std::string::npos) << line;
}

}  // namespace
}  // namespace dmtl
