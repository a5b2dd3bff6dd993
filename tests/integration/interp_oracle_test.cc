// The test oracle as a differential check on the engine: every
// materialization the rule VM produces must match the oracle's
// (tests/testing/oracle_eval.h: unplanned, unindexed, no bytecode, no
// chain acceleration) on the same input - database contents and
// value-change series byte for byte, and provenance as coverage per
// (predicate, tuple), since the oracle's rounds are its own. Runs over the
// shipped contract program(s), a directed recursion suite, and the
// randomized fuzz fragment, plus a fault-injection case proving the round
// barrier rolls back a partially flushed VM dispatch. These tests build a
// separate ctest lane (label InterpOracle, binary dmtl_oracle_tests).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/common/fault_injector.h"
#include "src/engine/reasoner.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "src/storage/serialize.h"
#include "tests/testing/oracle_eval.h"
#include "tests/testing/program_fuzzer.h"
#include "tests/testing/recursion_cases.h"

namespace dmtl {
namespace {

struct OracleRun {
  std::string database;    // SerializeDatabase of the fixpoint
  std::string series;      // Reasoner::Series of every relation
  std::string provenance;  // derived pieces, unioned per (predicate, tuple)
};

// One materialization - by the engine, or by the oracle - with everything
// observable captured as text.
OracleRun RunOnce(const Program& program, const Database& facts,
                  EngineOptions options, bool oracle) {
  std::vector<DerivationRecord> provenance;
  options.provenance = &provenance;
  Database db = facts;
  Status status = oracle
                      ? OracleMaterialize(program, &db, options, &provenance)
                      : Materialize(program, &db, options);
  EXPECT_TRUE(status.ok()) << status << " (oracle=" << oracle << ")";

  OracleRun out;
  out.database = SerializeDatabase(db);
  std::ostringstream series;
  for (const auto& [pred, rel] : db.relations()) {
    (void)rel;
    series << PredicateName(pred) << ":\n";
    for (const auto& [t, tuple] : Reasoner::Series(db, PredicateName(pred))) {
      series << "  " << t.ToString() << " " << TupleToString(tuple) << "\n";
    }
  }
  out.series = series.str();
  std::map<std::string, IntervalSet> coverage;
  for (const DerivationRecord& record : provenance) {
    coverage[PredicateName(record.predicate) + TupleToString(record.tuple)]
        .Insert(record.piece);
  }
  std::ostringstream prov;
  for (const auto& [fact, set] : coverage) {
    prov << fact << "@" << set.ToString() << "\n";
  }
  out.provenance = prov.str();
  return out;
}

// The oracle contract: the engine and the oracle must match on all three
// artifacts.
void ExpectExecutorsAgree(const Program& program, const Database& facts,
                          const EngineOptions& options,
                          const std::string& what) {
  SCOPED_TRACE(what);
  OracleRun vm = RunOnce(program, facts, options, /*oracle=*/false);
  OracleRun oracle = RunOnce(program, facts, options, /*oracle=*/true);
  EXPECT_EQ(vm.database, oracle.database);
  EXPECT_EQ(vm.series, oracle.series);
  EXPECT_EQ(vm.provenance, oracle.provenance);
}

// --- shipped programs ------------------------------------------------------

// Every program shipped under programs/ runs against small generated
// contract sessions (the shipped files carry rules, not facts): a balanced
// one and a short one opening at a large skew.
// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (34,131), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 140'000;

TEST(InterpOracleProgramsTest, ShippedProgramsAgree) {
  ASSERT_TRUE(std::filesystem::exists("programs"))
      << "run from the repository root (ctest does)";
  WorkloadConfig balanced;
  balanced.name = "oracle";
  balanced.num_events = 40;
  balanced.num_trades = 8;
  balanced.duration_s = 900;
  balanced.seed = 7;
  WorkloadConfig skewed;
  skewed.name = "skewed";
  skewed.num_events = 24;
  skewed.num_trades = 5;
  skewed.duration_s = 600;
  skewed.initial_skew = -500.0;
  skewed.seed = 123;

  size_t checked = 0;
  for (const WorkloadConfig& config : {balanced, skewed}) {
    auto session = GenerateSession(config);
    ASSERT_TRUE(session.ok()) << session.status();
    Database facts = SessionToDatabase(*session);
    EngineOptions options = SessionEngineOptions(*session);
    options.max_intervals = kContractIntervalBudget;
    for (const auto& entry :
         std::filesystem::directory_iterator("programs")) {
      if (entry.path().extension() != ".dmtl") continue;
      auto unit = ReadSourceFile(entry.path().string());
      ASSERT_TRUE(unit.ok()) << entry.path() << ": " << unit.status();
      Database combined = facts;
      combined.MergeFrom(unit->database);
      ExpectExecutorsAgree(unit->program, combined, options,
                           config.name + "/" +
                               entry.path().filename().string());
      ++checked;
    }
  }
  EXPECT_GE(checked, 2u) << "programs/ held no .dmtl files";
}

// --- directed recursion suite ----------------------------------------------

class InterpOracleRecursionTest
    : public ::testing::TestWithParam<RecursionCase> {};

TEST_P(InterpOracleRecursionTest, ExecutorsAgree) {
  auto unit = Parser::Parse(GetParam().text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectExecutorsAgree(unit->program, unit->database, options,
                       GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(Cases, InterpOracleRecursionTest,
                         ::testing::ValuesIn(kRecursionCases),
                         [](const auto& info) { return info.param.name; });

// --- randomized fuzz suite --------------------------------------------------

class InterpOracleFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpOracleFuzzTest, ExecutorsAgree) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectExecutorsAgree(unit->program, unit->database, options, text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpOracleFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

// --- fault injection mid-dispatch -------------------------------------------

// An injected failure between two flushed emissions of one VM dispatch:
// part of the dispatch's output has already reached the sink when the
// round fails. The engine must leave the database at the previous round
// barrier (verified against a max_rounds-capped reference run) and a
// clean re-run from the partial database must reach the unfaulted
// fixpoint.
TEST(InterpOracleFaultTest, MidDispatchFailureRollsBackToBarrier) {
  // A two-predicate cycle: no rule is a self-chain, so every round runs
  // through Evaluate (no ExtendChain batching).
  constexpr char kText[] =
      "a(A) :- deposit(A) .\n"
      "b(A) :- deposit(A) .\n"
      "a(A) :- boxminus b(A) .\n"
      "b(A) :- boxminus a(A) .\n"
      "deposit(x)@2 . deposit(y)@2 .\n";
  auto unit = Parser::Parse(kText);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(10);

  auto clean = [&]() {
    Database db = unit->database;
    EXPECT_TRUE(Materialize(unit->program, &db, options).ok());
    return db.ToString();
  };

  FaultInjector::Reset();
  // Two tuples per rule means every dispatch flushes two emissions;
  // an even hit count >2 lands between the first and second flush of
  // a dispatch in a later round - genuinely mid-dispatch.
  FaultInjector::Arm("vm.dispatch", 10,
                     Status::EvalError("injected mid-dispatch fault"));
  Database db = unit->database;
  EngineStats stats;
  Status status = Materialize(unit->program, &db, options, &stats);
  FaultInjector::Reset();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kEvalError);

  // Barrier consistency: the partial database is exactly the fixpoint
  // prefix up to the round before the one that failed.
  if (stats.stopped_round > 0) {
    EngineOptions reference = options;
    reference.max_rounds = stats.stopped_round - 1;
    Database ref_db = unit->database;
    EngineStats ref_stats;
    Status ref_status =
        Materialize(unit->program, &ref_db, reference, &ref_stats);
    ASSERT_EQ(ref_status.code(), StatusCode::kResourceExhausted);
    ASSERT_EQ(ref_stats.stopped_round, stats.stopped_round);
    EXPECT_EQ(db.ToString(), ref_db.ToString());
  } else {
    EXPECT_EQ(db.ToString(), unit->database.ToString());
  }

  // Recovery: re-running without the fault completes to the clean
  // fixpoint from the rolled-back state.
  Status recovered = Materialize(unit->program, &db, options);
  ASSERT_TRUE(recovered.ok()) << recovered;
  EXPECT_EQ(db.ToString(), clean());
}

}  // namespace
}  // namespace dmtl
