// Metamorphic properties of the IntervalSet kernels on the rational
// timeline. Scaling time by q > 0 is an order isomorphism of Q, so every
// kernel must commute with it: op(scale(A)) == scale(op(A)), with metric
// windows and shift offsets scaled along. Reflection t -> -t reverses the
// order, so it must commute with the set algebra and swap each past
// operator with its future mirror (diamondminus/diamondplus,
// boxminus/boxplus, since/until). Both sides are normalized sets, so the
// comparison is component for component. The factors 1/3 and 7/2 push
// integral inputs onto non-integral endpoints; half-integral inputs cover
// the mixed streams. Half the fuzzed sets carry a point run.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

const Rational kFactors[] = {Rational(1, 3), Rational(7, 2)};

// Randomized intervals over a small grid so coalescing, adjacency and
// openness interactions all occur.
class KernelFuzzer {
 public:
  explicit KernelFuzzer(uint64_t seed) : rng_(seed) {}

  int Pick(int n) { return static_cast<int>(rng_() % n); }

  Interval NextIntegral() {
    if (Pick(16) == 0) {
      Rational t(Pick(21) - 10);
      return Pick(2) == 0 ? Interval::AtLeast(t) : Interval::AtMost(t);
    }
    int64_t lo = Pick(21) - 10;
    int64_t hi = lo + Pick(6);
    return Shape(Rational(lo), Rational(hi));
  }

  Interval NextMixed() {
    Interval iv = NextIntegral();
    if (Pick(3) != 0) return iv;
    Rational lo(Pick(41) - 20, 2);
    return Shape(lo, lo + Rational(Pick(11), 2));
  }

  Interval Next(bool integral) {
    return integral ? NextIntegral() : NextMixed();
  }

  // n intervals, and half the time a point run on step 1, 1/3 or 7.
  IntervalSet Set(int n, bool integral) {
    IntervalSet out;
    if (Pick(2) == 0) {
      const Rational steps[] = {Rational(1), Rational(1, 3), Rational(7)};
      out = IntervalSet::Run(Rational(Pick(31) - 15, integral ? 1 : 2),
                             steps[Pick(3)], 2 + Pick(6));
    }
    for (int i = 0; i < n; ++i) out.Add(Next(integral));
    return out;
  }

  // A metric window: non-negative, possibly punctual or unbounded.
  Interval Window() {
    switch (Pick(5)) {
      case 0:
        return Interval::AtLeast(Rational(Pick(5)));
      case 1:
        return Interval::ClosedOpen(Rational(0), Rational(Pick(5) + 1));
      case 2:
        return Interval::Point(Rational(Pick(4)));
      default: {
        int64_t lo = Pick(4);
        return Shape(Rational(lo), Rational(lo + Pick(5)));
      }
    }
  }

 private:
  Interval Shape(const Rational& lo, const Rational& hi) {
    Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
    Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
    // Empty combination (e.g. [t,t) ): fall back to the point.
    return Interval::Make(blo, bhi).value_or(Interval::Point(lo));
  }

  std::mt19937_64 rng_;
};

Bound ScaleBound(Bound b, const Rational& q) {
  if (!b.infinite) b.value = b.value * q;
  return b;
}

Interval Scale(const Interval& iv, const Rational& q) {
  return *Interval::Make(ScaleBound(iv.lo(), q), ScaleBound(iv.hi(), q));
}

IntervalSet Scale(const IntervalSet& set, const Rational& q) {
  std::vector<Interval> out;
  for (const Interval& iv : set) out.push_back(Scale(iv, q));
  return IntervalSet::FromIntervals(out);
}

Bound NegateBound(Bound b) {
  if (!b.infinite) b.value = -b.value;
  return b;
}

Interval Reflect(const Interval& iv) {
  return *Interval::Make(NegateBound(iv.hi()), NegateBound(iv.lo()));
}

IntervalSet Reflect(const IntervalSet& set) {
  std::vector<Interval> out;
  for (const Interval& iv : set) out.push_back(Reflect(iv));
  return IntervalSet::FromIntervals(out);
}

// Runs `check(fuzz, seed)` over seeded fuzzers; each check draws whether
// its sets have integral endpoints or halves mixed in.
template <typename Check>
void ForEachStream(const Check& check) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    KernelFuzzer fuzz(seed);
    check(fuzz, seed);
  }
}

// A binary set kernel commutes with scaling.
template <typename Op>
void ExpectBinaryScales(const Op& op, const char* what) {
  ForEachStream([&](KernelFuzzer& fuzz, uint64_t seed) {
    bool integral = fuzz.Pick(2) == 0;
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), integral);
    IntervalSet b = fuzz.Set(1 + fuzz.Pick(8), !integral);
    IntervalSet expected = op(a, b);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(op(Scale(a, q), Scale(b, q)), Scale(expected, q))
          << what << " (seed " << seed << ", q=" << q.ToString()
          << "): a=" << a.ToString() << " b=" << b.ToString();
    }
  });
}

// A metric transform commutes with scaling when its window scales along.
template <typename Op>
void ExpectMetricScales(const Op& op, const char* what) {
  ForEachStream([&](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    Interval rho = fuzz.Window();
    IntervalSet expected = op(a, rho);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(op(Scale(a, q), Scale(rho, q)), Scale(expected, q))
          << what << " (seed " << seed << ", q=" << q.ToString()
          << "): a=" << a.ToString() << " rho=" << rho.ToString();
    }
  });
}

// Reflecting the input of `past` gives the reflection of `future` (and
// vice versa): the two operators are mirror images on the timeline.
template <typename Past, typename Future>
void ExpectReflectionSwaps(const Past& past, const Future& future,
                           const char* what) {
  ForEachStream([&](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    Interval rho = fuzz.Window();
    EXPECT_EQ(future(Reflect(a), rho), Reflect(past(a, rho)))
        << what << " past->future (seed " << seed << "): a=" << a.ToString()
        << " rho=" << rho.ToString();
    EXPECT_EQ(past(Reflect(a), rho), Reflect(future(a, rho)))
        << what << " future->past (seed " << seed << "): a=" << a.ToString()
        << " rho=" << rho.ToString();
  });
}

// --- Scaling: set algebra ---------------------------------------------------

TEST(IntervalSetScaleTest, UnionWithCommutesWithScaling) {
  ExpectBinaryScales(
      [](IntervalSet a, const IntervalSet& b) {
        a.UnionWith(b);
        return a;
      },
      "UnionWith");
}

TEST(IntervalSetScaleTest, UnionWithDeltaCommutesWithScaling) {
  // Both outputs: the merged set and the reported delta.
  ExpectBinaryScales(
      [](IntervalSet a, const IntervalSet& b) {
        IntervalSet delta = a.UnionWithDelta(b);
        return delta;
      },
      "UnionWithDelta delta");
  ExpectBinaryScales(
      [](IntervalSet a, const IntervalSet& b) {
        a.UnionWithDelta(b);
        return a;
      },
      "UnionWithDelta merged");
}

TEST(IntervalSetScaleTest, IntersectCommutesWithScaling) {
  ExpectBinaryScales(
      [](const IntervalSet& a, const IntervalSet& b) { return a.Intersect(b); },
      "Intersect");
}

TEST(IntervalSetScaleTest, IntersectIntervalCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    Interval iv = fuzz.NextMixed();
    IntervalSet expected = a.Intersect(iv);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(Scale(a, q).Intersect(Scale(iv, q)), Scale(expected, q))
          << "Intersect(Interval) (seed " << seed << ", q=" << q.ToString()
          << "): a=" << a.ToString() << " iv=" << iv.ToString();
    }
  });
}

TEST(IntervalSetScaleTest, SubtractCommutesWithScaling) {
  ExpectBinaryScales(
      [](const IntervalSet& a, const IntervalSet& b) { return a.Subtract(b); },
      "Subtract");
}

TEST(IntervalSetScaleTest, ComplementCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(fuzz.Pick(8), fuzz.Pick(2) == 0);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(Scale(a, q).Complement(), Scale(a.Complement(), q))
          << "Complement (seed " << seed << ", q=" << q.ToString()
          << "): a=" << a.ToString();
    }
  });
}

TEST(IntervalSetScaleTest, FromIntervalsCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    bool integral = fuzz.Pick(2) == 0;
    std::vector<Interval> stream;
    int n = 3 + fuzz.Pick(12);
    for (int i = 0; i < n; ++i) stream.push_back(fuzz.Next(integral));
    IntervalSet expected = IntervalSet::FromIntervals(stream);
    for (const Rational& q : kFactors) {
      std::vector<Interval> scaled;
      for (const Interval& iv : stream) scaled.push_back(Scale(iv, q));
      EXPECT_EQ(IntervalSet::FromIntervals(scaled), Scale(expected, q))
          << "FromIntervals (seed " << seed << ", q=" << q.ToString() << ")";
    }
  });
}

TEST(IntervalSetScaleTest, ShiftCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    Rational delta(fuzz.Pick(21) - 10, 1 + fuzz.Pick(2));
    for (const Rational& q : kFactors) {
      EXPECT_EQ(Scale(a, q).Shift(delta * q), Scale(a.Shift(delta), q))
          << "Shift (seed " << seed << ", q=" << q.ToString()
          << "): a=" << a.ToString() << " delta=" << delta.ToString();
    }
  });
}

// --- Scaling: metric transforms ---------------------------------------------

TEST(IntervalSetScaleTest, DiamondMinusCommutesWithScaling) {
  ExpectMetricScales(
      [](const IntervalSet& a, const Interval& rho) {
        return a.DiamondMinus(rho);
      },
      "DiamondMinus");
}

TEST(IntervalSetScaleTest, DiamondPlusCommutesWithScaling) {
  ExpectMetricScales(
      [](const IntervalSet& a, const Interval& rho) {
        return a.DiamondPlus(rho);
      },
      "DiamondPlus");
}

TEST(IntervalSetScaleTest, BoxMinusCommutesWithScaling) {
  ExpectMetricScales(
      [](const IntervalSet& a, const Interval& rho) { return a.BoxMinus(rho); },
      "BoxMinus");
}

TEST(IntervalSetScaleTest, BoxPlusCommutesWithScaling) {
  ExpectMetricScales(
      [](const IntervalSet& a, const Interval& rho) { return a.BoxPlus(rho); },
      "BoxPlus");
}

TEST(IntervalSetScaleTest, SinceCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet m1 = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    IntervalSet m2 = fuzz.Set(1 + fuzz.Pick(4), fuzz.Pick(2) == 0);
    Interval rho = fuzz.Window();
    IntervalSet expected = m1.Since(m2, rho);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(Scale(m1, q).Since(Scale(m2, q), Scale(rho, q)),
                Scale(expected, q))
          << "Since (seed " << seed << ", q=" << q.ToString()
          << "): m1=" << m1.ToString() << " m2=" << m2.ToString()
          << " rho=" << rho.ToString();
    }
  });
}

TEST(IntervalSetScaleTest, UntilCommutesWithScaling) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet m1 = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    IntervalSet m2 = fuzz.Set(1 + fuzz.Pick(4), fuzz.Pick(2) == 0);
    Interval rho = fuzz.Window();
    IntervalSet expected = m1.Until(m2, rho);
    for (const Rational& q : kFactors) {
      EXPECT_EQ(Scale(m1, q).Until(Scale(m2, q), Scale(rho, q)),
                Scale(expected, q))
          << "Until (seed " << seed << ", q=" << q.ToString()
          << "): m1=" << m1.ToString() << " m2=" << m2.ToString()
          << " rho=" << rho.ToString();
    }
  });
}

// --- Reflection ---------------------------------------------------------------

TEST(IntervalSetReflectionTest, SetAlgebraCommutesWithReflection) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet a = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    IntervalSet b = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    IntervalSet ra = Reflect(a), rb = Reflect(b);
    IntervalSet u = a, ru = ra;
    u.UnionWith(b);
    ru.UnionWith(rb);
    EXPECT_EQ(ru, Reflect(u)) << "UnionWith (seed " << seed << ")";
    EXPECT_EQ(ra.Intersect(rb), Reflect(a.Intersect(b)))
        << "Intersect (seed " << seed << ")";
    EXPECT_EQ(ra.Subtract(rb), Reflect(a.Subtract(b)))
        << "Subtract (seed " << seed << ")";
    EXPECT_EQ(ra.Complement(), Reflect(a.Complement()))
        << "Complement (seed " << seed << ")";
  });
}

TEST(IntervalSetReflectionTest, DiamondMinusMirrorsDiamondPlus) {
  ExpectReflectionSwaps(
      [](const IntervalSet& a, const Interval& rho) {
        return a.DiamondMinus(rho);
      },
      [](const IntervalSet& a, const Interval& rho) {
        return a.DiamondPlus(rho);
      },
      "Diamond");
}

TEST(IntervalSetReflectionTest, BoxMinusMirrorsBoxPlus) {
  ExpectReflectionSwaps(
      [](const IntervalSet& a, const Interval& rho) { return a.BoxMinus(rho); },
      [](const IntervalSet& a, const Interval& rho) { return a.BoxPlus(rho); },
      "Box");
}

TEST(IntervalSetReflectionTest, SinceMirrorsUntil) {
  ForEachStream([](KernelFuzzer& fuzz, uint64_t seed) {
    IntervalSet m1 = fuzz.Set(1 + fuzz.Pick(8), fuzz.Pick(2) == 0);
    IntervalSet m2 = fuzz.Set(1 + fuzz.Pick(4), fuzz.Pick(2) == 0);
    Interval rho = fuzz.Window();
    EXPECT_EQ(Reflect(m1).Until(Reflect(m2), rho),
              Reflect(m1.Since(m2, rho)))
        << "since->until (seed " << seed << "): m1=" << m1.ToString()
        << " m2=" << m2.ToString() << " rho=" << rho.ToString();
    EXPECT_EQ(Reflect(m1).Since(Reflect(m2), rho),
              Reflect(m1.Until(m2, rho)))
        << "until->since (seed " << seed << "): m1=" << m1.ToString()
        << " m2=" << m2.ToString() << " rho=" << rho.ToString();
  });
}

}  // namespace
}  // namespace dmtl
