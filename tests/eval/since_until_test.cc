// Semantics of the binary MTL operators on interval sets, validated against
// a brute-force oracle over a fine rational grid:
//   M1 Since_rho M2 at t  iff  exists s with t-s in rho, M2 at s,
//                              and M1 throughout the open gap (s, t);
//   M1 Until_rho M2 mirrors into the future.

#include <gtest/gtest.h>

#include "src/temporal/interval_set.h"
#include "tests/testing/membership_oracle.h"

namespace dmtl {
namespace {

Interval C(int lo, int hi) {
  return Interval::Closed(Rational(lo), Rational(hi));
}
Interval P(int t) { return Interval::Point(Rational(t)); }

// Oracle with s quantified over the 1/8 grid and the continuity check over
// a strictly finer 1/16 grid inside (s, t): all interval endpoints in the
// cases below live on the 1/4 grid, so any violation region inside a gap of
// width >= 1/8 contains a 1/16 grid point.
bool OracleSince(const IntervalSet& m1, const IntervalSet& m2,
                 const Interval& rho, const Rational& t, bool until) {
  const Rational step(1, 8);
  const Rational fine(1, 16);
  const Rational span(16);
  for (Rational s = t - span; s <= t + span; s += step) {
    Rational d = until ? s - t : t - s;
    if (!rho.Contains(d)) continue;
    if (!m2.Contains(s)) continue;
    Rational lo = until ? t : s;
    Rational hi = until ? s : t;
    bool gap_ok = true;
    for (Rational r = lo + fine; r < hi; r += fine) {
      if (!m1.Contains(r)) {
        gap_ok = false;
        break;
      }
    }
    if (gap_ok) return true;
  }
  return false;
}

struct BinaryCase {
  IntervalSet m1;
  IntervalSet m2;
  Interval rho;
};

class SinceUntilPropertyTest : public ::testing::TestWithParam<BinaryCase> {};

TEST_P(SinceUntilPropertyTest, SinceMatchesOracle) {
  const BinaryCase& c = GetParam();
  IntervalSet since = c.m1.Since(c.m2, c.rho);
  for (Rational t(-2); t <= Rational(16); t += Rational(1, 4)) {
    EXPECT_EQ(since.Contains(t),
              OracleSince(c.m1, c.m2, c.rho, t, /*until=*/false))
        << "since t=" << t.ToString() << " m1=" << c.m1.ToString()
        << " m2=" << c.m2.ToString() << " rho=" << c.rho.ToString();
  }
}

TEST_P(SinceUntilPropertyTest, UntilMatchesOracle) {
  const BinaryCase& c = GetParam();
  IntervalSet until = c.m1.Until(c.m2, c.rho);
  for (Rational t(-2); t <= Rational(16); t += Rational(1, 4)) {
    EXPECT_EQ(until.Contains(t),
              OracleSince(c.m1, c.m2, c.rho, t, /*until=*/true))
        << "until t=" << t.ToString() << " m1=" << c.m1.ToString()
        << " m2=" << c.m2.ToString() << " rho=" << c.rho.ToString();
  }
}

std::vector<BinaryCase> Cases() {
  std::vector<BinaryCase> cases;
  std::vector<IntervalSet> m1s = {
      IntervalSet(C(0, 10)),
      IntervalSet::FromIntervals({C(0, 4), C(6, 12)}),
      IntervalSet(Interval::Open(Rational(2), Rational(9))),
      IntervalSet::FromIntervals({P(3), P(4), P(5)}),
      IntervalSet(),
  };
  std::vector<IntervalSet> m2s = {
      IntervalSet(P(2)),
      IntervalSet::FromIntervals({P(1), P(7)}),
      IntervalSet(C(3, 5)),
      IntervalSet(Interval::ClosedOpen(Rational(0), Rational(1))),
  };
  std::vector<Interval> rhos = {
      Interval::Closed(Rational(0), Rational(3)),
      Interval::Closed(Rational(1), Rational(2)),
      Interval::Point(Rational(0)),
      Interval::Point(Rational(2)),
      Interval::OpenClosed(Rational(0), Rational(4)),
  };
  for (const auto& m1 : m1s) {
    for (const auto& m2 : m2s) {
      for (const auto& rho : rhos) {
        cases.push_back({m1, m2, rho});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SinceUntilPropertyTest,
                         ::testing::ValuesIn(Cases()));

// M1 and M2 with point runs (and dense neighbours) against the membership
// oracle: a run M1 only carries the s == t witnesses and punctual gaps.
TEST(SinceUntilTest, RunInputsMatchMembershipOracle) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    RunSetFuzzer fuzz(seed);
    for (int i = 0; i < 3; ++i) {
      const ExplicitSet e1 = fuzz.Next();
      const ExplicitSet e2 = fuzz.Next();
      const Interval rho = fuzz.Rho();
      const IntervalSet m1 = ToIntervalSet(e1);
      const IntervalSet m2 = ToIntervalSet(e2);
      std::vector<Rational> crit = membership::Criticals(e1);
      for (const Rational& c : membership::Criticals(e2)) crit.push_back(c);
      crit = membership::Spread(crit, rho);
      for (bool until : {false, true}) {
        IntervalSet got = until ? m1.Until(m2, rho) : m1.Since(m2, rho);
        EXPECT_EQ(membership::Disagreement(
                      got, crit,
                      [&](const Rational& t) {
                        return membership::SinceAt(e1, e2, rho, t, until);
                      }),
                  "")
            << (until ? "until" : "since") << " rho=" << rho.ToString()
            << " m1=" << e1.ToString() << " m2=" << e2.ToString();
      }
    }
  }
}

TEST(SinceUntilTest, SinceBasicShape) {
  // M2 at 2, M1 on [2,10], rho [0,5]: Since holds on [2,7].
  IntervalSet m1(C(2, 10));
  IntervalSet m2(P(2));
  IntervalSet since = m1.Since(m2, C(0, 5));
  EXPECT_EQ(since, IntervalSet(C(2, 7)));
}

TEST(SinceUntilTest, SinceBlockedByGapInM1) {
  // M1 has a hole at 5: Since cannot reach past it.
  IntervalSet m1 = IntervalSet::FromIntervals({C(2, 4), C(6, 10)});
  IntervalSet m2(P(2));
  IntervalSet since = m1.Since(m2, C(0, 8));
  // Points t <= 4 are fine; anything past the hole would need M1 across it.
  EXPECT_TRUE(since.Contains(Rational(4)));
  EXPECT_FALSE(since.Contains(Rational(9, 2)));  // (2,4.5) spans the hole
  EXPECT_FALSE(since.Contains(Rational(6)));
}

TEST(SinceUntilTest, UntilBasicShape) {
  // M2 at 8, M1 on [0,8], rho [1,3]: Until holds on [5,7].
  IntervalSet m1(C(0, 8));
  IntervalSet m2(P(8));
  IntervalSet until = m1.Until(m2, C(1, 3));
  EXPECT_EQ(until, IntervalSet(C(5, 7)));
}

}  // namespace
}  // namespace dmtl
