// Exhaustive property sweep over endpoint-kind combinations: for every pair
// of intervals built from all open/closed/infinite bound combinations on a
// small coordinate grid, the set operations must agree with a dense
// point-sampling oracle.

#include <gtest/gtest.h>

#include "src/temporal/interval_set.h"

namespace dmtl {
namespace {

// All interval shapes over coordinates {0, 2, 4} plus infinite sides.
std::vector<Interval> AllShapes() {
  std::vector<Interval> out;
  std::vector<Rational> coords = {Rational(0), Rational(2), Rational(4)};
  for (const Rational& lo : coords) {
    for (const Rational& hi : coords) {
      for (bool lo_open : {false, true}) {
        for (bool hi_open : {false, true}) {
          Bound l = lo_open ? Bound::Open(lo) : Bound::Closed(lo);
          Bound h = hi_open ? Bound::Open(hi) : Bound::Closed(hi);
          auto iv = Interval::Make(l, h);
          if (iv.has_value()) out.push_back(*iv);
        }
      }
      for (bool hi_open : {false, true}) {
        Bound h = hi_open ? Bound::Open(hi) : Bound::Closed(hi);
        auto iv = Interval::Make(Bound::Infinite(), h);
        if (iv.has_value()) out.push_back(*iv);
      }
      for (bool lo_open : {false, true}) {
        Bound l = lo_open ? Bound::Open(lo) : Bound::Closed(lo);
        auto iv = Interval::Make(l, Bound::Infinite());
        if (iv.has_value()) out.push_back(*iv);
      }
    }
  }
  out.push_back(Interval::All());
  return out;
}

// Sample points: the grid coordinates, midpoints between them, and points
// outside the hull - enough to distinguish any two shapes above.
std::vector<Rational> SamplePoints() {
  std::vector<Rational> pts;
  for (Rational t(-2); t <= Rational(6); t += Rational(1, 2)) {
    pts.push_back(t);
  }
  return pts;
}

TEST(IntervalBoundsPropertyTest, IntersectAgreesWithPointwiseAnd) {
  auto shapes = AllShapes();
  auto points = SamplePoints();
  for (const Interval& a : shapes) {
    for (const Interval& b : shapes) {
      auto x = a.Intersect(b);
      for (const Rational& t : points) {
        bool expected = a.Contains(t) && b.Contains(t);
        bool actual = x.has_value() && x->Contains(t);
        ASSERT_EQ(actual, expected)
            << a.ToString() << " ^ " << b.ToString() << " at "
            << t.ToString();
      }
      // Symmetry.
      auto y = b.Intersect(a);
      ASSERT_EQ(x.has_value(), y.has_value());
      if (x.has_value()) {
        ASSERT_EQ(*x, *y);
      }
    }
  }
}

TEST(IntervalBoundsPropertyTest, UnionableMeansNoGap) {
  auto shapes = AllShapes();
  auto points = SamplePoints();
  for (const Interval& a : shapes) {
    for (const Interval& b : shapes) {
      bool unionable = a.Unionable(b);
      ASSERT_EQ(unionable, b.Unionable(a))
          << a.ToString() << " " << b.ToString();
      if (!unionable) continue;
      Interval u = a.UnionWith(b);
      for (const Rational& t : points) {
        ASSERT_EQ(u.Contains(t), a.Contains(t) || b.Contains(t))
            << a.ToString() << " u " << b.ToString() << " at "
            << t.ToString();
      }
    }
  }
}

TEST(IntervalBoundsPropertyTest, ContainsIntervalMatchesPointwise) {
  auto shapes = AllShapes();
  auto points = SamplePoints();
  for (const Interval& a : shapes) {
    for (const Interval& b : shapes) {
      // On this grid (all endpoints and midpoints sampled, plus points
      // outside the hull) pointwise subset is equivalent to containment.
      bool contains = a.Contains(b);
      bool pointwise = true;
      for (const Rational& t : points) {
        if (b.Contains(t) && !a.Contains(t)) pointwise = false;
      }
      ASSERT_EQ(contains, pointwise)
          << a.ToString() << " >= " << b.ToString();
    }
  }
}

TEST(IntervalBoundsPropertyTest, SetSubtractComplementDuality) {
  auto shapes = AllShapes();
  auto points = SamplePoints();
  for (size_t i = 0; i < shapes.size(); i += 3) {
    for (size_t j = 0; j < shapes.size(); j += 3) {
      IntervalSet a(shapes[i]);
      IntervalSet b(shapes[j]);
      IntervalSet diff = a.Subtract(b);
      IntervalSet alt = a.Intersect(b.Complement());
      ASSERT_EQ(diff, alt) << shapes[i].ToString() << " - "
                           << shapes[j].ToString();
      for (const Rational& t : points) {
        ASSERT_EQ(diff.Contains(t),
                  shapes[i].Contains(t) && !shapes[j].Contains(t))
            << shapes[i].ToString() << " - " << shapes[j].ToString()
            << " at " << t.ToString();
      }
    }
  }
}

TEST(IntervalBoundsPropertyTest, StartsBeforeIsStrictWeakOrder) {
  auto shapes = AllShapes();
  for (const Interval& a : shapes) {
    EXPECT_FALSE(a.StartsBefore(a)) << a.ToString();
    for (const Interval& b : shapes) {
      if (a.StartsBefore(b)) {
        EXPECT_FALSE(b.StartsBefore(a))
            << a.ToString() << " " << b.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace dmtl
