#include "src/eval/aggregate_eval.h"

#include <gtest/gtest.h>

#include "src/eval/vm.h"
#include "src/parser/parser.h"
#include "tests/testing/compile_rule.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

// Runs an aggregate rule the way the engine does - the rule VM emits one
// witness row per body binding and AggregateEvaluator groups them - and
// returns the derived facts as a rendered database, after checking them
// against the test oracle's evaluation of the same rule.
std::string Derive(const char* rule_text, const char* facts_text) {
  auto rule = Parser::ParseRule(rule_text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  auto db = Parser::ParseDatabase(facts_text);
  EXPECT_TRUE(db.ok()) << db.status();
  auto vm = CompileRule(*rule);
  EXPECT_TRUE(vm.ok()) << vm.status();
  auto agg = AggregateEvaluator::Create(*rule);
  EXPECT_TRUE(agg.ok()) << agg.status();
  if (!rule.ok() || !db.ok() || !vm.ok() || !agg.ok()) return "";

  std::vector<WitnessRow> witnesses;
  Status status = (*vm)->Evaluate(
      *db, nullptr, -1,
      [&](const Tuple& tuple, const IntervalSet& extent) -> Status {
        witnesses.emplace_back(tuple, extent);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status;
  Database derived;
  status = agg->Evaluate(
      witnesses, [&](const Tuple& tuple, const IntervalSet& extent) -> Status {
        derived.InsertSet(rule->head.predicate, tuple, extent);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status;

  Database oracle;
  status = OracleDerive(
      *rule, *db, [&](const Tuple& tuple, const IntervalSet& extent) {
        oracle.InsertSet(rule->head.predicate, tuple, extent);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(derived.ToString(), oracle.ToString())
      << "VM and oracle diverged on " << rule_text;
  return derived.ToString();
}

TEST(AggregateEvalTest, SumGroupsByTimePoint) {
  // Two accounts act at t=5, one at t=9.
  EXPECT_EQ(Derive("event(msum(S)) :- contrib(A, S) .",
                   "contrib(a, 2.0)@5 . contrib(b, 3.0)@5 . "
                   "contrib(a, -1.0)@9 ."),
            "event(-1)@{[9,9]}\nevent(5)@{[5,5]}\n");
}

TEST(AggregateEvalTest, IntSumStaysInt) {
  EXPECT_EQ(Derive("total(msum(S)) :- c(A, S) .", "c(a, 2)@1 . c(b, 3)@1 ."),
            "total(5)@{[1,1]}\n");
}

TEST(AggregateEvalTest, WitnessesAreDistinctBindings) {
  // Same size from two different accounts: both count.
  EXPECT_EQ(Derive("event(msum(S)) :- c(A, S) .",
                   "c(a, 2.0)@1 . c(b, 2.0)@1 ."),
            "event(4)@{[1,1]}\n");
}

TEST(AggregateEvalTest, GroupByNonAggregatedArgs) {
  EXPECT_EQ(Derive("perAcc(A, msum(S)) :- c(A, S) .",
                   "c(a, 2.0)@1 . c(a, 3.0)@1 . c(b, 5.0)@1 ."),
            "perAcc(a, 5)@{[1,1]}\nperAcc(b, 5)@{[1,1]}\n");
}

TEST(AggregateEvalTest, IntervalContributionsSegmentTimeline) {
  // One contribution on [0,10], another on [4,6]: the sum steps 1,2,1.
  EXPECT_EQ(Derive("load(msum(S)) :- c(A, S) .",
                   "c(a, 1)@[0,10] . c(b, 1)@[4,6] ."),
            "load(1)@{[0,4) (6,10]}\nload(2)@{[4,6]}\n");
}

TEST(AggregateEvalTest, CountMinMaxAvg) {
  const char* facts = "c(a, 2.0)@1 . c(b, 8.0)@1 . c(d, 5.0)@1 .";
  EXPECT_EQ(Derive("n(mcount(S)) :- c(A, S) .", facts), "n(3)@{[1,1]}\n");
  EXPECT_EQ(Derive("lo(mmin(S)) :- c(A, S) .", facts), "lo(2)@{[1,1]}\n");
  EXPECT_EQ(Derive("hi(mmax(S)) :- c(A, S) .", facts), "hi(8)@{[1,1]}\n");
  EXPECT_EQ(Derive("mid(mavg(S)) :- c(A, S) .", facts), "mid(5)@{[1,1]}\n");
}

TEST(AggregateEvalTest, BodyJoinsAndBuiltinsApplyBeforeAggregation) {
  EXPECT_EQ(Derive("event(msum(S)) :- c(A, S0), ok(A), S = S0 * 2.0 .",
                   "c(a, 2.0)@1 . c(b, 3.0)@1 . ok(a)@[0,5] ."),
            "event(4)@{[1,1]}\n");
}

TEST(AggregateEvalTest, NoContributionsNoFacts) {
  EXPECT_EQ(Derive("event(msum(S)) :- c(A, S) .", "other(a, 1.0)@1 ."), "");
}

TEST(AggregateEvalTest, RejectsNonAggregateRule) {
  auto rule = Parser::ParseRule("p(X) :- q(X) .");
  EXPECT_FALSE(AggregateEvaluator::Create(*rule).ok());
}

// Two accounts contribute the same S over overlapping intervals. The
// witness rows keep A, so both count where the intervals overlap; a
// projection onto S alone would merge them into one contribution.
TEST(AggregateEvalTest, EqualContributionsFromTwoAccountsBothCount) {
  EXPECT_EQ(Derive("event(msum(S)) :- eventContrib(A, S) .",
                   "eventContrib(a, 2.0)@[0,6] . eventContrib(b, 2.0)@[4,10] ."),
            "event(2)@{[0,4) (6,10]}\nevent(4)@{[4,6]}\n");
}

// Negation trims a witness before aggregation, and the head boxminus
// dilates each aggregated segment into the past. d's contribution holds
// only where d is not blocked, (8,10]: the sum is 1 on [0,4) and (6,8], 4
// on [4,6] and 6 on (8,10]. boxminus[0,2] load holding at t means load
// holds throughout [t-2,t], so each segment reaches 2 further back.
TEST(AggregateEvalTest, NegatedBodyAndHeadBoxMinus) {
  EXPECT_EQ(Derive("boxminus[0,2] load(msum(S)) :- c(A, S), not blocked(A) .",
                   "c(a, 1)@[0,10] . c(b, 3)@[4,6] . c(d, 5)@[0,10] . "
                   "blocked(d)@[0,8] ."),
            "load(1)@{[-2,4) (4,8]}\nload(4)@{[2,6]}\nload(6)@{(6,10]}\n");
}

TEST(AggregateEvalTest, OpenIntervalEdgesSegmentExactly) {
  EXPECT_EQ(Derive("load(msum(S)) :- c(A, S) .",
                   "c(a, 1)@[0,5) . c(b, 1)@[5,9] ."),
            "load(1)@{[0,9]}\n");
}

}  // namespace
}  // namespace dmtl
