#include "src/parser/parser.h"

#include <gtest/gtest.h>

namespace dmtl {
namespace {

TEST(ParserTest, SimpleRule) {
  auto rule = Parser::ParseRule("isOpen(A) :- tranM(A, M) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->head.predicate, InternPredicate("isOpen"));
  ASSERT_EQ(rule->body.size(), 1u);
  EXPECT_EQ(rule->body[0].metric.kind(), MetricAtom::Kind::kRelational);
  EXPECT_EQ(rule->var_names, (std::vector<std::string>{"A", "M"}));
}

TEST(ParserTest, OperatorsWithAndWithoutRanges) {
  auto rule = Parser::ParseRule(
      "p(A) :- boxminus[2,3] q(A), diamondminus r(A) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  const MetricAtom& box = rule->body[0].metric;
  EXPECT_EQ(box.kind(), MetricAtom::Kind::kUnary);
  EXPECT_EQ(box.op(), MtlOp::kBoxMinus);
  EXPECT_EQ(box.range(), Interval::Closed(Rational(2), Rational(3)));
  // Omitted range defaults to the paper's [1,1].
  const MetricAtom& dia = rule->body[1].metric;
  EXPECT_EQ(dia.range(), Interval::Point(Rational(1)));
}

TEST(ParserTest, NegationAndAnonymousVariables) {
  auto rule = Parser::ParseRule(
      "position(A, S, N) :- diamondminus position(A, S, N), "
      "not order(A, _), isOpen(A) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_TRUE(rule->body[1].negated);
  // _ gets a fresh variable index distinct from A/S/N.
  std::vector<int> vars;
  rule->body[1].metric.CollectVars(&vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], 0);
  EXPECT_EQ(vars[1], 3);
}

TEST(ParserTest, BuiltinsAssignmentsAndComparisons) {
  auto rule = Parser::ParseRule(
      "margin(A, M) :- diamondminus margin(A, X), tranM(A, Y), "
      "M = X + Y, X > 0.0 .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  ASSERT_EQ(rule->body.size(), 4u);
  EXPECT_EQ(rule->body[2].builtin.kind, BuiltinAtom::Kind::kAssign);
  EXPECT_EQ(rule->body[3].builtin.kind, BuiltinAtom::Kind::kCompare);
  EXPECT_EQ(rule->body[3].builtin.cmp, CmpOp::kGt);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto rule = Parser::ParseRule("p(C) :- q(K, P, D), "
                                "C = -K * P / 300000000.0 + D .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  const Expr& e = rule->body[1].builtin.expr;
  // (((-K) * P) / 3e8) + D
  EXPECT_EQ(e.op(), Expr::Op::kAdd);
  EXPECT_EQ(e.children()[0].op(), Expr::Op::kDiv);
  EXPECT_EQ(e.children()[0].children()[0].op(), Expr::Op::kMul);
  EXPECT_EQ(e.children()[0].children()[0].children()[0].op(), Expr::Op::kNeg);
}

TEST(ParserTest, AbsMinMaxFunctions) {
  auto rule = Parser::ParseRule(
      "fee(A, C) :- modPos(A, S), price(P), "
      "C = abs(S * P * 0.0035) + min(S, max(P, 1.0)) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
}

TEST(ParserTest, TimestampBuiltin) {
  auto rule = Parser::ParseRule("tdiff(T, T) :- start(), timestamp(T) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  EXPECT_EQ(rule->body[1].builtin.kind, BuiltinAtom::Kind::kTimestamp);
}

TEST(ParserTest, Aggregation) {
  auto rule = Parser::ParseRule("event(msum(S)) :- eventContrib(A, S) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  ASSERT_TRUE(rule->head.aggregate.has_value());
  EXPECT_EQ(rule->head.aggregate->kind, AggKind::kSum);
  EXPECT_EQ(rule->head.aggregate->arg_index, 0);
}

TEST(ParserTest, SinceUntilBinary) {
  auto rule = Parser::ParseRule(
      "alarm(X) :- (ok(X) since[0,5] reset(X)) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  const MetricAtom& m = rule->body[0].metric;
  EXPECT_EQ(m.kind(), MetricAtom::Kind::kBinary);
  EXPECT_EQ(m.op(), MtlOp::kSince);
  EXPECT_EQ(m.range(), Interval::Closed(Rational(0), Rational(5)));
}

TEST(ParserTest, HeadOperators) {
  auto rule = Parser::ParseRule("boxminus[0,2] p(X) :- q(X) .");
  ASSERT_TRUE(rule.ok()) << rule.status();
  ASSERT_EQ(rule->head.ops.size(), 1u);
  EXPECT_EQ(rule->head.ops[0].op, MtlOp::kBoxMinus);
  // Diamond is not allowed in heads by the DatalogMTL grammar.
  EXPECT_FALSE(Parser::ParseRule("diamondminus p(X) :- q(X) .").ok());
}

TEST(ParserTest, FactsWithIntervals) {
  auto db = Parser::ParseDatabase(
      "price(1301.5)@[1664272800, 1664272860) .\n"
      "tranM(acc1, 20.0)@1664272805 .\n"
      "skew(-2445.98)@0 .\n"
      "frs(0.0)@[0, 0] .\n"
      "eternal(a) .\n");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->Holds("price", {Value::Double(1301.5)},
                        Rational(1664272800)));
  EXPECT_FALSE(db->Holds("price", {Value::Double(1301.5)},
                         Rational(1664272860)));
  EXPECT_TRUE(db->Holds("tranM", {Value::Symbol("acc1"), Value::Double(20.0)},
                        Rational(1664272805)));
  EXPECT_TRUE(db->Holds("skew", {Value::Double(-2445.98)}, Rational(0)));
  EXPECT_TRUE(db->Holds("eternal", {Value::Symbol("a")},
                        Rational(-1'000'000)));
}

TEST(ParserTest, RationalAndInfiniteBounds) {
  auto db = Parser::ParseDatabase("p(a)@[1/2, 3/2] . q(b)@[0, inf) .");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->Holds("p", {Value::Symbol("a")}, Rational(1, 2)));
  EXPECT_TRUE(db->Holds("p", {Value::Symbol("a")}, Rational(1)));
  EXPECT_TRUE(db->Holds("q", {Value::Symbol("b")}, Rational(1'000'000)));
}

TEST(ParserTest, MixedUnitSeparation) {
  auto unit = Parser::Parse("p(X) :- q(X) . q(a)@3 .");
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->program.size(), 1u);
  EXPECT_EQ(unit->database.NumPredicates(), 1u);
  EXPECT_FALSE(Parser::ParseProgram("p(X) :- q(X) . q(a)@3 .").ok());
  EXPECT_FALSE(Parser::ParseDatabase("p(X) :- q(X) . q(a)@3 .").ok());
}

TEST(ParserTest, OutOfRangeNumbersAreParseErrors) {
  // Mutated snapshot lines reach the parser; overflow must be a Status.
  auto big_double = Parser::ParseDatabase("p(1e999)@1 .");
  ASSERT_FALSE(big_double.ok());
  EXPECT_EQ(big_double.status().code(), StatusCode::kParseError);
  auto big_int = Parser::ParseDatabase("p(99999999999999999999)@1 .");
  ASSERT_FALSE(big_int.ok());
  EXPECT_EQ(big_int.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(Parser::ParseDatabase("p(-9223372036854775807)@1 .").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto r1 = Parser::ParseProgram("p(X) :- q(X)");  // missing dot
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line"), std::string::npos);

  EXPECT_FALSE(Parser::ParseProgram("p(X) :- boxminus[-1,1] q(X) .").ok());
  EXPECT_FALSE(Parser::ParseProgram("p(X) :- boxminus[3,1] q(X) .").ok());
  EXPECT_FALSE(Parser::Parse("p(X)@5 .").ok());  // non-ground fact
  EXPECT_FALSE(Parser::Parse("event(msum(S))@5 .").ok());
}

TEST(ParserTest, GarbageNeverCrashes) {
  // Truncations and shuffles of valid input must come back as ParseError
  // statuses, never crashes or hangs.
  const std::string valid =
      "margin(A, M) :- boxminus isOpen(A), diamondminus margin(A, X), "
      "tranM(A, Y), M = X + Y . price(47.5)@[10, 20) .";
  for (size_t cut = 0; cut < valid.size(); cut += 3) {
    auto result = Parser::Parse(valid.substr(0, cut));
    // Some prefixes are valid programs; all others must fail cleanly.
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    }
  }
  const char* garbage[] = {
      ":- .",
      "p( .",
      "p(X) :- q(X), .",
      "p(X) :- not not q(X) .",
      "p(X) :- boxminus .",
      "p(X) :- since q(X) .",
      "p(X)@ .",
      "p(X) :- q(X) . . .",
      "@5 .",
      "p(X) :- q(X) r(X) .",
      "p(X) :- timestamp(3) .",
      "p(X,) :- q(X) .",
      "((((((((",
      "p(X) :- q(X) ]] .",
  };
  for (const char* text : garbage) {
    auto result = Parser::Parse(text);
    EXPECT_FALSE(result.ok()) << "accepted garbage: " << text;
  }
}

TEST(ParserTest, KeywordLiterals) {
  auto db = Parser::ParseDatabase("flag(true)@1 . flag(false)@2 . n(null)@3 .");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->Holds("flag", {Value::Bool(true)}, Rational(1)));
  EXPECT_TRUE(db->Holds("flag", {Value::Bool(false)}, Rational(2)));
  EXPECT_TRUE(db->Holds("n", {Value::Null()}, Rational(3)));
}

TEST(ParserTest, EthPerpStyleRoundTrip) {
  // A representative slice of the contract program must parse and print.
  const char* text =
      "frs(F) :- diamondminus frs(X), unrFund(UF), F = X + UF .\n"
      "skew(K) :- diamondminus skew(K), not event(_), marketOpen() .\n";
  auto program = Parser::ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->size(), 2u);
  // Re-parse the printed form.
  auto round = Parser::ParseProgram(program->ToString());
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_EQ(round->ToString(), program->ToString());
}

}  // namespace
}  // namespace dmtl
