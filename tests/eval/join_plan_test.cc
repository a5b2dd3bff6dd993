// Join-planner equivalence and soundness: materializing with
// enable_join_planning on and off must produce identical database contents
// and cover the same derived intervals in provenance. The planner reorders
// literals and changes the order rows are enumerated in, so provenance
// *text* (insertion order of pieces) may differ between on and off;
// coverage - the union of derived pieces per (predicate, tuple) - is the
// invariant.
//
// Also covers the soundness corner the pruning design calls out (an atom
// under the LEFT operand of since/until must not be envelope-pruned: an
// empty LHS holds vacuously when 0 is in rho), the planner counters, and
// ExplainPlan.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>

#include "src/chain/replayer.h"
#include "src/chain/workload.h"
#include "src/contracts/eth_perp_program.h"
#include "src/eval/rule_eval.h"
#include "src/eval/seminaive.h"
#include "src/parser/parser.h"

namespace dmtl {
namespace {

struct RunResult {
  std::string db_text;
  std::string provenance_coverage;
  size_t derived_intervals = 0;
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

RunResult MaterializeWithPlanning(const Program& program,
                                  const Database& input, EngineOptions options,
                                  bool planning) {
  std::vector<DerivationRecord> provenance;
  options.enable_join_planning = planning;
  options.provenance = &provenance;
  Database db = input;
  EngineStats stats;
  Status status = Materialize(program, &db, options, &stats);
  EXPECT_TRUE(status.ok()) << status << " (planning=" << planning << ")";
  RunResult out;
  out.db_text = db.ToString();
  out.provenance_coverage = ProvenanceCoverage(provenance);
  out.derived_intervals = stats.derived_intervals;
  return out;
}

// Planner on must equal planner off - same database, same provenance
// coverage, same derived-interval count.
void ExpectPlannerEquivalence(const Program& program, const Database& input,
                              const EngineOptions& options,
                              const std::string& label) {
  RunResult on = MaterializeWithPlanning(program, input, options, true);
  RunResult off = MaterializeWithPlanning(program, input, options, false);
  EXPECT_EQ(on.db_text, off.db_text) << label << ": database diverged";
  EXPECT_EQ(on.provenance_coverage, off.provenance_coverage)
      << label << ": provenance coverage diverged";
  EXPECT_EQ(on.derived_intervals, off.derived_intervals)
      << label << ": derived counts diverged";
}

// The safe fragment the differential tests fuzz: stratified negation,
// boxminus/diamondminus recursion, multi-literal joins.
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

class PlannerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerFuzzTest, PlannerOnOffAgree) {
  ProgramFuzzer fuzzer(GetParam());
  std::string text = fuzzer.Generate();
  auto unit = Parser::Parse(text);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\nprogram:\n" << text;
  EngineOptions options;
  options.min_time = Rational(0);
  options.max_time = Rational(40);
  ExpectPlannerEquivalence(unit->program, unit->database, options,
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
  ExpectPlannerEquivalence(unit->program, unit->database, options,
                           "transitive closure");
}

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
  ExpectPlannerEquivalence(*program, input, options, "ETH-PERP session");
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
  ExpectPlannerEquivalence(unit->program, unit->database, options,
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
// cost per rule; with planning off every counter stays zero.
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

  Database db_off = unit->database;
  EngineStats off;
  EngineOptions options;
  options.enable_join_planning = false;
  ASSERT_TRUE(Materialize(unit->program, &db_off, options, &off).ok());
  EXPECT_EQ(off.planner_indexes_built, 0u);
  EXPECT_EQ(off.planner_index_probes, 0u);
  EXPECT_EQ(off.planner_pruned_tuples, 0u);
  EXPECT_TRUE(off.rule_plan_cost.empty());
  EXPECT_EQ(off.ToString().find("planner_probes="), std::string::npos);
  EXPECT_EQ(db.ToString(), db_off.ToString());
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
  auto eval = RuleEvaluator::Create(unit->program.rules()[0]);
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

  auto off = RuleEvaluator::Create(unit->program.rules()[0],
                                   /*enable_join_planning=*/false);
  ASSERT_TRUE(off.ok());
  EXPECT_NE(off->ExplainPlan(unit->database).find("disabled"),
            std::string::npos);
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
  ExpectPlannerEquivalence(unit->program, unit->database, options,
                           "delta-pinned recursion");
}

}  // namespace
}  // namespace dmtl
