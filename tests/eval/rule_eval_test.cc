#include "src/eval/vm.h"

#include <gtest/gtest.h>

#include "src/parser/parser.h"
#include "tests/testing/compile_rule.h"

namespace dmtl {
namespace {

// Evaluates one rule fully against a fact database given as text and
// returns the derived facts as a rendered database.
std::string Derive(const char* rule_text, const char* facts_text) {
  auto rule = Parser::ParseRule(rule_text);
  EXPECT_TRUE(rule.ok()) << rule.status();
  auto db = Parser::ParseDatabase(facts_text);
  EXPECT_TRUE(db.ok()) << db.status();
  auto vm = CompileRule(*rule);
  EXPECT_TRUE(vm.ok()) << vm.status();
  if (!vm.ok()) return "";
  Database derived;
  Status status = (*vm)->Evaluate(
      *db, nullptr, -1,
      [&](const Tuple& tuple, const IntervalSet& extent) -> Status {
        derived.InsertSet(rule->head.predicate, tuple, extent);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status;
  return derived.ToString();
}

TEST(RuleEvalTest, SimpleProjection) {
  EXPECT_EQ(Derive("isOpen(A) :- tranM(A, M) .",
                   "tranM(acc, 20.0)@5 . tranM(bob, 7.0)@[2,4] ."),
            "isOpen(acc)@{[5,5]}\nisOpen(bob)@{[2,4]}\n");
}

TEST(RuleEvalTest, JoinIntersectsExtents) {
  EXPECT_EQ(Derive("both(A) :- p(A), q(A) .",
                   "p(x)@[0,10] . q(x)@[5,20] . p(y)@[0,3] . q(y)@[7,9] ."),
            "both(x)@{[5,10]}\n");
}

TEST(RuleEvalTest, ConstantsInBodyFilter) {
  EXPECT_EQ(Derive("hit(A) :- p(A, 3) .", "p(x, 3)@1 . p(y, 4)@1 ."),
            "hit(x)@{[1,1]}\n");
}

TEST(RuleEvalTest, RepeatedVariableUnifies) {
  EXPECT_EQ(Derive("same(A) :- p(A, A) .", "p(x, x)@1 . p(x, y)@1 ."),
            "same(x)@{[1,1]}\n");
}

TEST(RuleEvalTest, MetricOperatorInBody) {
  EXPECT_EQ(Derive("q(A) :- boxminus[1,1] p(A) .", "p(x)@[3,5] ."),
            "q(x)@{[4,6]}\n");
  EXPECT_EQ(Derive("q(A) :- diamondminus[0,2] p(A) .", "p(x)@4 ."),
            "q(x)@{[4,6]}\n");
}

TEST(RuleEvalTest, NegationSubtracts) {
  EXPECT_EQ(Derive("calm(A) :- p(A), not alarm(A) .",
                   "p(x)@[0,10] . alarm(x)@[3,4] ."),
            "calm(x)@{[0,3) (4,10]}\n");
}

TEST(RuleEvalTest, ExistentialNegation) {
  // not order(A, _): any order by A blocks, regardless of size.
  EXPECT_EQ(Derive("idle(A) :- p(A), not order(A, _) .",
                   "p(x)@[0,6] . order(x, 1.0)@2 . order(x, -2.0)@5 ."),
            "idle(x)@{[0,2) (2,5) (5,6]}\n");
}

TEST(RuleEvalTest, NegationUnderOperator) {
  // not boxminus[1,1] isOpen(A): blocked where isOpen held one tick ago.
  EXPECT_EQ(Derive("fresh(A) :- tranM(A, M), not boxminus[1,1] isOpen(A) .",
                   "tranM(x, 5.0)@3 . tranM(x, 5.0)@7 . isOpen(x)@[3,8] ."),
            "fresh(x)@{[3,3]}\n");
}

TEST(RuleEvalTest, BuiltinsComputeAndFilter) {
  EXPECT_EQ(Derive("sum(A, M) :- p(A, X), q(A, Y), M = X + Y, M > 5.0 .",
                   "p(x, 4.0)@1 . q(x, 3.0)@1 . p(y, 1.0)@1 . q(y, 1.0)@1 ."),
            "sum(x, 7)@{[1,1]}\n");
}

TEST(RuleEvalTest, TimestampSplitsPunctualExtents) {
  EXPECT_EQ(Derive("at(A, T) :- p(A), timestamp(T) .", "p(x)@3 . p(x)@7 ."),
            "at(x, 3)@{[3,3]}\nat(x, 7)@{[7,7]}\n");
}

TEST(RuleEvalTest, TimestampOnIntervalExtentFails) {
  auto rule = Parser::ParseRule("at(A, T) :- p(A), timestamp(T) .");
  auto db = Parser::ParseDatabase("p(x)@[1,5] .");
  auto vm = CompileRule(*rule);
  ASSERT_TRUE(vm.ok()) << vm.status();
  Status status = (*vm)->Evaluate(
      *db, nullptr, -1,
      [](const Tuple&, const IntervalSet&) { return Status::Ok(); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kEvalError);
}

TEST(RuleEvalTest, LateBuiltinsAfterTimestamp) {
  EXPECT_EQ(Derive("delta(D) :- p(T0), timestamp(T), D = T - T0 .",
                   "p(10)@13 ."),
            "delta(3)@{[13,13]}\n");
}

TEST(RuleEvalTest, HeadBoxMinusDilatesIntoPast) {
  // If boxminus[0,2] p must hold throughout the derived extent, p itself
  // holds over the past-dilation.
  EXPECT_EQ(Derive("boxminus[0,2] p(A) :- q(A) .", "q(x)@5 ."),
            "p(x)@{[3,5]}\n");
  EXPECT_EQ(Derive("boxplus[1,2] p(A) :- q(A) .", "q(x)@5 ."),
            "p(x)@{[6,7]}\n");
}

TEST(RuleEvalTest, SinceInRuleBody) {
  EXPECT_EQ(Derive("a(X) :- (ok(X) since[0,3] reset(X)) .",
                   "ok(x)@[2,10] . reset(x)@2 ."),
            "a(x)@{[2,5]}\n");
}

TEST(RuleEvalTest, TruthAndFalsity) {
  EXPECT_EQ(Derive("always(A) :- p(A), top .", "p(x)@[1,2] ."),
            "always(x)@{[1,2]}\n");
  EXPECT_EQ(Derive("never(A) :- p(A), bottom .", "p(x)@[1,2] ."), "");
}

TEST(RuleEvalTest, DeltaRestrictionLimitsDerivations) {
  auto rule = Parser::ParseRule("q(A) :- p(A) .");
  auto db = Parser::ParseDatabase("p(x)@[0,10] . p(y)@[0,10] .");
  Database delta;
  delta.Insert("p", {Value::Symbol("x")},
               Interval::Closed(Rational(8), Rational(10)));
  auto vm = CompileRule(*rule);
  ASSERT_TRUE(vm.ok()) << vm.status();
  Database derived;
  Status status = (*vm)->Evaluate(
      *db, &delta, 0,
      [&](const Tuple& tuple, const IntervalSet& extent) -> Status {
        derived.InsertSet(rule->head.predicate, tuple, extent);
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok()) << status;
  // Only the delta portion of x is rederived.
  EXPECT_EQ(derived.ToString(), "q(x)@{[8,10]}\n");
}

TEST(RuleEvalTest, ZeroArityAtoms) {
  EXPECT_EQ(Derive("open() :- start() .", "start()@0 ."), "open()@{[0,0]}\n");
}

}  // namespace
}  // namespace dmtl
