// Semantics tests of the four unary MTL operator transforms on single
// intervals, checked against the paper's definitions:
//   M, t |= boxminus_rho M      iff M at all s with t - s in rho
//   M, t |= diamondminus_rho M  iff M at some s with t - s in rho
// plus the mirrored future operators. A brute-force model checker over a
// fine rational grid serves as the oracle for the property sweeps; the
// IntervalSet transforms of sets with point runs are checked against the
// membership oracle (tests/testing/membership_oracle.h).

#include <gtest/gtest.h>

#include "src/ast/atom.h"
#include "src/temporal/interval.h"
#include "src/temporal/interval_set.h"
#include "tests/testing/membership_oracle.h"

namespace dmtl {
namespace {

// Oracle: does the compound atom hold at t, given the fact holds exactly on
// `fact`? Quantifies s over a grid fine enough for quarter-integer bounds.
bool OracleHolds(MtlOp op, const Interval& rho, const Interval& fact,
                 const Rational& t) {
  const Rational step(1, 8);
  const Rational span(12);
  bool exists = false;
  bool forall = true;
  bool any_s = false;
  for (Rational s = t - span; s <= t + span; s += step) {
    Rational d = (op == MtlOp::kDiamondMinus || op == MtlOp::kBoxMinus)
                     ? t - s
                     : s - t;
    if (!rho.Contains(d)) continue;
    any_s = true;
    if (fact.Contains(s)) {
      exists = true;
    } else {
      forall = false;
    }
  }
  switch (op) {
    case MtlOp::kDiamondMinus:
    case MtlOp::kDiamondPlus:
      return exists;
    case MtlOp::kBoxMinus:
    case MtlOp::kBoxPlus:
      return any_s && forall;
    default:
      return false;
  }
}

bool TransformHolds(MtlOp op, const Interval& rho, const Interval& fact,
                    const Rational& t) {
  std::optional<Interval> out;
  switch (op) {
    case MtlOp::kDiamondMinus:
      out = fact.DiamondMinus(rho);
      break;
    case MtlOp::kBoxMinus:
      out = fact.BoxMinus(rho);
      break;
    case MtlOp::kDiamondPlus:
      out = fact.DiamondPlus(rho);
      break;
    case MtlOp::kBoxPlus:
      out = fact.BoxPlus(rho);
      break;
    default:
      break;
  }
  return out.has_value() && out->Contains(t);
}

TEST(MtlOperatorTest, PunctualRangeIsShift) {
  Interval fact = Interval::Closed(Rational(5), Rational(8));
  Interval rho = Interval::Point(Rational(2));
  EXPECT_EQ(fact.DiamondMinus(rho),
            Interval::Closed(Rational(7), Rational(10)));
  auto box = fact.BoxMinus(rho);
  ASSERT_TRUE(box.has_value());
  // Punctual windows make box and diamond coincide (paper, Section 2.1).
  EXPECT_EQ(*box, fact.DiamondMinus(rho));
}

TEST(MtlOperatorTest, DiamondMinusDilates) {
  Interval fact = Interval::Closed(Rational(5), Rational(8));
  Interval rho = Interval::Closed(Rational(1), Rational(3));
  EXPECT_EQ(fact.DiamondMinus(rho),
            Interval::Closed(Rational(6), Rational(11)));
}

TEST(MtlOperatorTest, BoxMinusErodes) {
  Interval fact = Interval::Closed(Rational(5), Rational(8));
  Interval rho = Interval::Closed(Rational(1), Rational(3));
  auto box = fact.BoxMinus(rho);
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(*box, Interval::Closed(Rational(8), Rational(9)));
}

TEST(MtlOperatorTest, BoxMinusEmptyWhenFactShorterThanWindow) {
  Interval fact = Interval::Closed(Rational(5), Rational(6));
  Interval rho = Interval::Closed(Rational(0), Rational(3));
  EXPECT_FALSE(fact.BoxMinus(rho).has_value());
}

TEST(MtlOperatorTest, OpennessPropagation) {
  // diamondminus over a half-open fact keeps the open edge.
  Interval fact = Interval::ClosedOpen(Rational(5), Rational(8));
  Interval rho = Interval::Closed(Rational(1), Rational(2));
  Interval dil = fact.DiamondMinus(rho);
  EXPECT_EQ(dil, Interval::ClosedOpen(Rational(6), Rational(10)));
  // An open rho bound makes the result edge open too.
  Interval rho_open = Interval::OpenClosed(Rational(1), Rational(2));
  Interval dil2 = Interval::Closed(Rational(5), Rational(8))
                      .DiamondMinus(rho_open);
  EXPECT_EQ(dil2, Interval::OpenClosed(Rational(6), Rational(10)));
}

TEST(MtlOperatorTest, UnboundedWindowBoxRequiresInfinitePast) {
  Interval fact = Interval::Closed(Rational(0), Rational(100));
  auto rho = Interval::Make(Bound::Closed(Rational(0)), Bound::Infinite());
  ASSERT_TRUE(rho.has_value());
  EXPECT_FALSE(fact.BoxMinus(*rho).has_value());
  Interval eternal = Interval::AtMost(Rational(100));
  auto box = eternal.BoxMinus(*rho);
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(*box, Interval::AtMost(Rational(100)));
}

TEST(MtlOperatorTest, DiamondPlusMirrors) {
  Interval fact = Interval::Closed(Rational(5), Rational(8));
  Interval rho = Interval::Closed(Rational(1), Rational(3));
  EXPECT_EQ(fact.DiamondPlus(rho),
            Interval::Closed(Rational(2), Rational(7)));
  auto box = fact.BoxPlus(rho);
  ASSERT_TRUE(box.has_value());
  EXPECT_EQ(*box, Interval::Closed(Rational(4), Rational(5)));
}

// Property sweep: every operator agrees with the brute-force oracle on a
// grid of sample points, for assorted fact/rho shapes including open
// bounds and fractional endpoints.
struct OperatorCase {
  MtlOp op;
  Interval fact;
  Interval rho;
};

class MtlOperatorPropertyTest
    : public ::testing::TestWithParam<OperatorCase> {};

TEST_P(MtlOperatorPropertyTest, MatchesBruteForceOracle) {
  const OperatorCase& c = GetParam();
  for (Rational t(-4); t <= Rational(14); t += Rational(1, 4)) {
    EXPECT_EQ(TransformHolds(c.op, c.rho, c.fact, t),
              OracleHolds(c.op, c.rho, c.fact, t))
        << MtlOpToString(c.op) << " rho=" << c.rho.ToString()
        << " fact=" << c.fact.ToString() << " t=" << t.ToString();
  }
}

std::vector<OperatorCase> AllCases() {
  std::vector<Interval> facts = {
      Interval::Point(Rational(3)),
      Interval::Closed(Rational(1), Rational(5)),
      Interval::Open(Rational(1), Rational(5)),
      Interval::ClosedOpen(Rational(0), Rational(2)),
      Interval::OpenClosed(Rational(2), Rational(9)),
      Interval::Closed(Rational(-2), Rational(-1)),
  };
  std::vector<Interval> rhos = {
      Interval::Point(Rational(0)),
      Interval::Point(Rational(1)),
      Interval::Closed(Rational(0), Rational(2)),
      Interval::Closed(Rational(1), Rational(3)),
      Interval::Open(Rational(0), Rational(2)),
      Interval::OpenClosed(Rational(1, 2), Rational(5, 2)),
      Interval::ClosedOpen(Rational(0), Rational(1)),
  };
  std::vector<MtlOp> ops = {MtlOp::kDiamondMinus, MtlOp::kBoxMinus,
                            MtlOp::kDiamondPlus, MtlOp::kBoxPlus};
  std::vector<OperatorCase> cases;
  for (MtlOp op : ops) {
    for (const Interval& fact : facts) {
      for (const Interval& rho : rhos) {
        cases.push_back({op, fact, rho});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MtlOperatorPropertyTest,
                         ::testing::ValuesIn(AllCases()));

// Sets with point runs: a punctual window shifts a run, one at least a step
// wide fills it into one interval, a narrower one leaves a sliver per
// point; boxes keep a run only under a punctual window.
TEST(MtlOperatorRunTest, SetTransformsMatchMembershipOracle) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunSetFuzzer fuzz(seed);
    for (int i = 0; i < 6; ++i) {
      const ExplicitSet e = fuzz.Next();
      const Interval rho = fuzz.Rho();
      const IntervalSet set = ToIntervalSet(e);
      const std::vector<Rational> crit =
          membership::Spread(membership::Criticals(e), rho);
      struct Op {
        const char* name;
        IntervalSet got;
        bool future;
        bool diamond;
      };
      const Op ops[] = {
          {"diamondminus", set.DiamondMinus(rho), false, true},
          {"boxminus", set.BoxMinus(rho), false, false},
          {"diamondplus", set.DiamondPlus(rho), true, true},
          {"boxplus", set.BoxPlus(rho), true, false},
      };
      for (const Op& op : ops) {
        EXPECT_EQ(membership::Disagreement(
                      op.got, crit,
                      [&](const Rational& t) {
                        return membership::MetricAt(e, rho, t, op.future,
                                                    op.diamond);
                      }),
                  "")
            << op.name << " rho=" << rho.ToString() << " set=" << e.ToString();
      }
      const Rational delta = rho.lo().value;
      EXPECT_EQ(membership::Disagreement(
                    set.Shift(delta), membership::Spread(crit, rho),
                    [&](const Rational& t) {
                      return membership::Member(e, t - delta);
                    }),
                "")
          << "shift " << delta.ToString() << " set=" << e.ToString();
    }
  }
}

}  // namespace
}  // namespace dmtl
