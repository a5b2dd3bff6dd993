// Edge cases of rule evaluation beyond the happy paths: empty relations,
// constants in heads, duplicate literals, negated binary operators,
// multiple timestamp splits, assignment/filter interplay, and atoms wider
// than an index signature.

#include <gtest/gtest.h>

#include <sstream>

#include "src/eval/seminaive.h"
#include "src/eval/vm.h"
#include "src/parser/parser.h"
#include "tests/testing/compile_rule.h"
#include "tests/testing/oracle_eval.h"

namespace dmtl {
namespace {

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

TEST(RuleEvalEdgeTest, MissingRelationYieldsNothing) {
  EXPECT_EQ(Derive("q(X) :- p(X), absent(X) .", "p(a)@1 ."), "");
  EXPECT_EQ(Derive("q(X) :- absent(X) .", "p(a)@1 ."), "");
}

TEST(RuleEvalEdgeTest, NegationOfMissingRelationIsVacuous) {
  EXPECT_EQ(Derive("q(X) :- p(X), not absent(X) .", "p(a)@1 ."),
            "q(a)@{[1,1]}\n");
}

TEST(RuleEvalEdgeTest, ConstantsInHead) {
  EXPECT_EQ(Derive("tagged(X, marker, 7) :- p(X) .", "p(a)@1 ."),
            "tagged(a, marker, 7)@{[1,1]}\n");
}

TEST(RuleEvalEdgeTest, DuplicateBodyLiteralsAreHarmless) {
  EXPECT_EQ(Derive("q(X) :- p(X), p(X), p(X) .", "p(a)@[1,5] ."),
            "q(a)@{[1,5]}\n");
}

TEST(RuleEvalEdgeTest, SelfJoinOnDifferentVariables) {
  EXPECT_EQ(Derive("pair(X, Y) :- p(X), p(Y), X != Y .",
                   "p(a)@[1,3] . p(b)@[2,6] ."),
            "pair(a, b)@{[2,3]}\npair(b, a)@{[2,3]}\n");
}

TEST(RuleEvalEdgeTest, NegatedBinaryOperator) {
  // not (ok since reset): the whole binary extent subtracts.
  EXPECT_EQ(Derive("bad(X) :- p(X), not (ok(X) since[0,3] reset(X)) .",
                   "p(x)@[0,10] . ok(x)@[2,10] . reset(x)@2 ."),
            "bad(x)@{[0,2) (5,10]}\n");
}

TEST(RuleEvalEdgeTest, MultipleTimestampVariablesAgree) {
  // Two timestamp builtins bind the same point; a filter can compare them.
  EXPECT_EQ(Derive("at(A, T, U) :- p(A), timestamp(T), timestamp(U), "
                   "T == U .",
                   "p(x)@4 ."),
            "at(x, 4, 4)@{[4,4]}\n");
}

TEST(RuleEvalEdgeTest, TimestampWithFractionalPoint) {
  EXPECT_EQ(Derive("at(T) :- p(), timestamp(T) .", "p()@[1/2, 1/2] ."),
            "at(0.5)@{[1/2,1/2]}\n");
}

TEST(RuleEvalEdgeTest, AssignmentChainsOutOfOrder) {
  EXPECT_EQ(Derive("q(A, C) :- p(A, X), C = B * 2, B = X + 1 .",
                   "p(a, 3)@1 ."),
            "q(a, 8)@{[1,1]}\n");
}

TEST(RuleEvalEdgeTest, AssignmentAsEqualityFilterOnAtomVariable) {
  // M is bound by the second atom; `M = X + Y` filters instead of binding.
  EXPECT_EQ(Derive("ok(A) :- p(A, X, Y), q(A, M), M = X + Y .",
                   "p(a, 1.0, 2.0)@1 . q(a, 3.0)@1 . "
                   "p(b, 1.0, 2.0)@1 . q(b, 4.0)@1 ."),
            "ok(a)@{[1,1]}\n");
}

TEST(RuleEvalEdgeTest, EvaluationErrorsPropagate) {
  auto rule = Parser::ParseRule("q(A, C) :- p(A, X), C = X / 0.0 .");
  auto db = Parser::ParseDatabase("p(a, 1.0)@1 .");
  auto vm = CompileRule(*rule);
  ASSERT_TRUE(vm.ok()) << vm.status();
  Status status = (*vm)->Evaluate(
      *db, nullptr, -1,
      [](const Tuple&, const IntervalSet&) { return Status::Ok(); });
  EXPECT_EQ(status.code(), StatusCode::kEvalError);
}

TEST(RuleEvalEdgeTest, EmitErrorsPropagate) {
  auto rule = Parser::ParseRule("q(X) :- p(X) .");
  auto db = Parser::ParseDatabase("p(a)@1 .");
  auto vm = CompileRule(*rule);
  ASSERT_TRUE(vm.ok()) << vm.status();
  Status status = (*vm)->Evaluate(
      *db, nullptr, -1, [](const Tuple&, const IntervalSet&) {
        return Status::ResourceExhausted("budget");
      });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(RuleEvalEdgeTest, ArityMismatchedTuplesAreSkipped) {
  // The same predicate name with a different arity in the database (legal
  // at the storage level) never unifies.
  Database db;
  db.Insert("p", {Value::Symbol("a")}, Interval::Point(Rational(1)));
  db.Insert("p", {Value::Symbol("a"), Value::Symbol("b")},
            Interval::Point(Rational(1)));
  auto rule = Parser::ParseRule("q(X) :- p(X) .");
  auto vm = CompileRule(*rule);
  ASSERT_TRUE(vm.ok()) << vm.status();
  Database derived;
  ASSERT_TRUE((*vm)->Evaluate(db, nullptr, -1,
                             [&](const Tuple& tuple,
                                 const IntervalSet& extent) -> Status {
                               derived.InsertSet(rule->head.predicate,
                                                 tuple, extent);
                               return Status::Ok();
                             })
                  .ok());
  EXPECT_EQ(derived.ToString(), "q(a)@{[1,1]}\n");
}

TEST(RuleEvalEdgeTest, IntervalFactsThroughPunctualOperators) {
  // A [1,1] shift of an interval fact moves the whole interval.
  EXPECT_EQ(Derive("q(X) :- boxminus p(X) .", "p(a)@[3,7) ."),
            "q(a)@{[4,8)}\n");
  EXPECT_EQ(Derive("q(X) :- diamondminus p(X) .", "p(a)@(0,2] ."),
            "q(a)@{(1,3]}\n");
}

TEST(RuleEvalEdgeTest, WindowOperatorsAcrossGaps) {
  // diamondminus[0,2] bridges a gap of width <= 2, boxminus[0,2] does not.
  EXPECT_EQ(Derive("q(X) :- diamondminus[0,2] p(X) .",
                   "p(a)@[0,1] . p(a)@[3,4] ."),
            "q(a)@{[0,6]}\n");
  EXPECT_EQ(Derive("q(X) :- boxminus[0,2] p(X) .",
                   "p(a)@[0,1] . p(a)@[3,4] ."),
            "");
}

// A 70-argument join: index signatures cover positions 0-63 only, so the
// join on positions 64-69 is unified per candidate. b holds ten tuples
// (past the indexing threshold) keyed on position 0; only the even ones
// also agree with a on positions 64-69.
TEST(RuleEvalEdgeTest, SeventyArgumentAtomsRunOnTheVm) {
  auto args = [](const std::string& first, const std::string& mid,
                 const std::string& tail) {
    std::string out = first;
    for (int i = 1; i < 64; ++i) out += ", " + mid + std::to_string(i);
    for (int i = 64; i < 70; ++i) out += ", " + tail;
    return out;
  };
  std::ostringstream text;
  text << "r(X0, X64) :- a(" << args("X0", "X", "X64") << "), b("
       << args("X0", "Y", "X64") << ") .\n";
  for (int t = 0; t < 10; ++t) {
    const std::string key = "s" + std::to_string(t);
    const std::string tail = "m" + std::to_string(t);
    text << "a(" << args(key, "x", tail) << ")@[0,10] .\n";
    text << "b(" << args(key, "y", t % 2 == 0 ? tail : "mz") << ")@[" << t
         << "," << (t + 1) << "] .\n";
  }
  auto unit = Parser::Parse(text.str());
  ASSERT_TRUE(unit.ok()) << unit.status();

  Database vm_db = unit->database;
  EngineStats stats;
  ASSERT_TRUE(Materialize(unit->program, &vm_db, {}, &stats).ok());
  EXPECT_EQ(stats.compiled_rules, 1u);
  Database oracle_db = unit->database;
  ASSERT_TRUE(OracleMaterialize(unit->program, &oracle_db, {}).ok());
  EXPECT_EQ(vm_db.ToString(), oracle_db.ToString());

  const Relation* r = vm_db.Find("r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->NumTuples(), 5u);
  EXPECT_TRUE(vm_db.Holds("r", {Value::Symbol("s4"), Value::Symbol("m4")},
                          Rational(9, 2)));
  EXPECT_FALSE(vm_db.Holds("r", {Value::Symbol("s3"), Value::Symbol("m3")},
                           Rational(7, 2)));
}

}  // namespace
}  // namespace dmtl
