// Join-planner soundness: the planner reorders literals, probes
// bound-signature indexes and prunes candidates by temporal envelope, so
// every planned materialization is checked against the test oracle
// (tests/testing/oracle_eval.h), which runs each rule in body order with
// none of that machinery. Database contents must be identical, and so must
// provenance coverage - the union of derived pieces per (predicate, tuple);
// the two evaluators attribute pieces to rounds of their own.
//
// Also covers the soundness corner the pruning design calls out (an atom
// under the LEFT operand of since/until must not be envelope-pruned: an
// empty LHS holds vacuously when 0 is in rho), the planner counters, and
// ExplainPlan.

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/eval/planner.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"
#include "tests/testing/oracle_eval.h"
#include "tests/testing/program_fuzzer.h"

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

// One materialization by the engine (oracle == false) or by the test
// oracle.
RunResult MaterializeWith(const Program& program, const Database& input,
                          EngineOptions options, bool oracle) {
  std::vector<DerivationRecord> provenance;
  options.provenance = &provenance;
  Database db = input;
  Status status = oracle
                      ? OracleMaterialize(program, &db, options, &provenance)
                      : Materialize(program, &db, options);
  EXPECT_TRUE(status.ok()) << status << " (oracle=" << oracle << ")";
  RunResult out;
  out.db_text = db.ToString();
  out.provenance_coverage = ProvenanceCoverage(provenance);
  return out;
}

// The planned VM must equal the oracle - same database, same provenance
// coverage.
void ExpectPlannerSound(const Program& program, const Database& input,
                        const EngineOptions& options,
                        const std::string& label) {
  RunResult vm = MaterializeWith(program, input, options, false);
  RunResult oracle = MaterializeWith(program, input, options, true);
  EXPECT_EQ(vm.db_text, oracle.db_text) << label << ": database diverged";
  EXPECT_EQ(vm.provenance_coverage, oracle.provenance_coverage)
      << label << ": provenance coverage diverged";
}

class PlannerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerFuzzTest, VmMatchesOracle) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectPlannerSound(unit->program, unit->database, options,
                     "fuzz program:\n" + text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(JoinPlanTest, RecursiveTransitiveClosureAgrees) {
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
  ExpectPlannerSound(unit->program, unit->database, options,
                     "transitive closure");
}

// Interval budget of the contract runs below, in pieces: about 4x the
// largest passing run (13,103), so a kernel or chain-walk fault that
// over-derives fails fast on ResourceExhausted instead of growing the store
// until the machine runs out of memory.
constexpr size_t kContractIntervalBudget = 52'000;

TEST(JoinPlanTest, EthPerpSessionAgrees) {
  WorkloadConfig config;
  config.name = "planner-eq";
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
  ExpectPlannerSound(*program, input, options, "ETH-PERP session");
  // Every rule runs on the VM, the event aggregate included.
  Database db = input;
  EngineStats stats;
  ASSERT_TRUE(Materialize(*program, &db, options, &stats).ok());
  EXPECT_EQ(stats.compiled_rules, program->size());
}

// The pruning-soundness corner: p(X) since[0,2] q(X) holds wherever q
// holds even if p never does (0 in rho makes the empty LHS vacuous). p's
// only fact lies at [100,200], temporally disjoint from everything else -
// an unsound planner would envelope-prune it and lose r(a)@[3,5].
TEST(JoinPlanTest, SinceLeftOperandIsNotPruned) {
  const char* text =
      "r(X) :- s(X), p(X) since[0,2] q(X) .\n"
      "s(a)@[0,10] .\n"
      "q(a)@[3,5] .\n"
      "p(a)@[100,200] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(300);
  ExpectPlannerSound(unit->program, unit->database, options,
                     "since-LHS vacuity");
  Database db = unit->database;
  ASSERT_TRUE(Materialize(unit->program, &db, options).ok());
  const Relation* r = db.Find("r");
  ASSERT_NE(r, nullptr);
  const IntervalSet* extent = r->Find(Tuple{Value::Symbol("a")});
  ASSERT_NE(extent, nullptr);
  EXPECT_TRUE(extent->Contains(Rational(3)));
  EXPECT_TRUE(extent->Contains(Rational(5)));
}

// A join wide enough to cross the indexing threshold: the planner must
// report indexes built, probes issued, and tuples pruned, plus one plan
// cost per rule.
TEST(JoinPlanTest, PlannerCountersAreReported) {
  std::ostringstream text;
  text << "r(X, Z) :- p(X, Y), q(Y, Z) .\n";
  for (int i = 0; i < 12; ++i) {
    text << "p(a" << i << ", b" << i << ")@[" << i << "," << (i + 1)
         << "] .\n";
    text << "q(b" << i << ", c" << i << ")@[" << i << "," << (i + 1)
         << "] .\n";
    // Same join key, far-away extent: index hits that the temporal
    // envelope precheck should discard.
    text << "q(b" << i << ", far)@[1000,1001] .\n";
  }
  auto unit = Parser::Parse(text.str());
  ASSERT_TRUE(unit.ok()) << unit.status();

  Database db = unit->database;
  EngineStats stats;
  ASSERT_TRUE(Materialize(unit->program, &db, {}, &stats).ok());
  EXPECT_GE(stats.planner_indexes_built, 1u);
  EXPECT_GE(stats.planner_index_probes, 1u);
  EXPECT_GE(stats.planner_probe_hits, 1u);
  EXPECT_GE(stats.planner_pruned_tuples, 1u);
  ASSERT_EQ(stats.rule_plan_cost.size(), unit->program.size());
  EXPECT_GT(stats.rule_plan_cost[0], 0.0);
  EXPECT_NE(stats.ToString().find("planner_probes="), std::string::npos);
}

TEST(JoinPlanTest, ExplainPlanDescribesOrderIndexesAndPruning) {
  std::ostringstream text;
  text << "r(X, Z) :- p(X, Y), q(Y, Z) .\n";
  for (int i = 0; i < 12; ++i) {
    text << "p(a" << i << ", b" << i << ")@[" << i << "," << (i + 1)
         << "] .\n"
         << "q(b" << i << ", c" << i << ")@[" << i << "," << (i + 1)
         << "] .\n";
  }
  auto unit = Parser::Parse(text.str());
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto eval = RulePlanner::Create(unit->program.rules()[0]);
  ASSERT_TRUE(eval.ok()) << eval.status();

  std::string plan = eval->ExplainPlan(unit->database);
  EXPECT_NE(plan.find("1. "), std::string::npos) << plan;
  EXPECT_NE(plan.find("2. "), std::string::npos) << plan;
  // The second literal joins on its now-bound variable: an index probe on
  // that position, envelope-pruned, with a per-step and total cost.
  EXPECT_NE(plan.find("index(0)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("envelope-pruned"), std::string::npos) << plan;
  EXPECT_NE(plan.find("est_cost="), std::string::npos) << plan;
  EXPECT_NE(plan.find("total est_cost="), std::string::npos) << plan;
}

// The delta literal is pinned first in semi-naive passes, whatever the
// cost model says: recursion converges to the same fixpoint.
TEST(JoinPlanTest, DeltaPinnedRecursionAgrees) {
  const char* text =
      "hop(X, Y) :- edge(X, Y) .\n"
      "hop(X, Z) :- diamondminus[0,2] hop(X, Y), edge(Y, Z), not stop(X) .\n"
      "edge(a, b)@[0,6] . edge(b, c)@[1,5] . edge(c, d)@[2,4] .\n"
      "edge(d, e)@[2,3] . stop(d)@[0,10] .\n";
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(20);
  ExpectPlannerSound(unit->program, unit->database, options,
                     "delta-pinned recursion");
}

}  // namespace
}  // namespace dmtl
