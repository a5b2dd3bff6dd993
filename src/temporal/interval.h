#ifndef DMTL_TEMPORAL_INTERVAL_H_
#define DMTL_TEMPORAL_INTERVAL_H_

#include <optional>
#include <ostream>
#include <string>

#include "src/temporal/rational.h"

namespace dmtl {

// One endpoint of an interval: either a finite rational (open or closed) or
// an infinity. `open` is meaningless for infinite bounds (always open).
struct Bound {
  Rational value;
  bool open = false;
  bool infinite = false;

  static Bound Closed(Rational v) { return {v, false, false}; }
  static Bound Open(Rational v) { return {v, true, false}; }
  static Bound Infinite() { return {Rational(), true, true}; }
};

// A non-empty interval over the rational timeline with independently
// open/closed finite endpoints, or infinite endpoints. This is the temporal
// annotation of a DatalogMTL fact (P(a)@<t1,t2>) and the index set rho of a
// metric operator.
//
// Instances are always non-empty: construction goes through Make() (which
// rejects empty bound combinations) or the convenience factories.
class Interval {
 public:
  // Builds <lo, hi> if non-empty. Returns nullopt for empty combinations
  // (lo > hi, or lo == hi unless both endpoints are closed).
  static std::optional<Interval> Make(Bound lo, Bound hi);

  // [t, t].
  static Interval Point(const Rational& t);
  // [lo, hi]; requires lo <= hi.
  static Interval Closed(const Rational& lo, const Rational& hi);
  // (lo, hi); requires lo < hi.
  static Interval Open(const Rational& lo, const Rational& hi);
  // [lo, hi).
  static Interval ClosedOpen(const Rational& lo, const Rational& hi);
  // (lo, hi].
  static Interval OpenClosed(const Rational& lo, const Rational& hi);
  // (-inf, +inf).
  static Interval All();
  // [t, +inf).
  static Interval AtLeast(const Rational& t);
  // (-inf, t].
  static Interval AtMost(const Rational& t);

  const Bound& lo() const { return lo_; }
  const Bound& hi() const { return hi_; }

  bool lo_infinite() const { return lo_.infinite; }
  bool hi_infinite() const { return hi_.infinite; }

  // True iff the interval is the single point [t, t].
  bool IsPunctual() const;

  // hi - lo as a rational; nullopt if either side is infinite.
  std::optional<Rational> Length() const;

  bool Contains(const Rational& t) const;
  bool Contains(const Interval& other) const;

  // Set intersection; nullopt when disjoint.
  std::optional<Interval> Intersect(const Interval& other) const;

  // True iff the intersection is non-empty. Cheaper than Intersect() when
  // only the yes/no answer matters (the join planner's envelope prechecks).
  bool Overlaps(const Interval& other) const;

  // The smallest interval containing both (their convex hull); always
  // non-empty since intervals are.
  Interval Hull(const Interval& other) const;

  // True when the union of the two intervals is itself an interval
  // (they overlap or touch without a gap, e.g. [1,3) and [3,5]).
  bool Unionable(const Interval& other) const;

  // Union of two Unionable() intervals.
  Interval UnionWith(const Interval& other) const;

  // The interval translated by delta.
  Interval Shift(const Rational& delta) const;

  // --- MTL operator transforms -------------------------------------------
  // Given that an atom M holds exactly throughout this interval, these
  // return where the compound metric atom holds (nullopt when nowhere).
  // rho must be a non-empty interval with non-negative bounds.

  // diamondminus_rho M at t  iff  M at some s with t - s in rho.
  // Minkowski dilation into the future: <lo+rho.lo, hi+rho.hi>.
  Interval DiamondMinus(const Interval& rho) const;

  // boxminus_rho M at t  iff  M at all s with t - s in rho.
  // Erosion: <lo+rho.hi, hi+rho.lo>; empty when the fact interval is
  // shorter than rho.
  std::optional<Interval> BoxMinus(const Interval& rho) const;

  // diamondplus_rho M at t  iff  M at some s with s - t in rho.
  Interval DiamondPlus(const Interval& rho) const;

  // boxplus_rho M at t  iff  M at all s with s - t in rho.
  std::optional<Interval> BoxPlus(const Interval& rho) const;

  // Ordering for normalized storage: by lower bound (closed endpoints start
  // before open ones at the same value), ties by upper bound.
  bool StartsBefore(const Interval& other) const;

  // True iff every point of *this precedes every point of `other` with a
  // non-empty gap in between (i.e. not Unionable and strictly before).
  bool StrictlyBefore(const Interval& other) const;

  // "[1,3)", "(-inf,5]", "[2,2]".
  std::string ToString() const;

  friend bool operator==(const Interval& a, const Interval& b);
  friend bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }

 private:
  Interval(Bound lo, Bound hi) : lo_(lo), hi_(hi) {}

  Bound lo_;
  Bound hi_;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

// --- inline hot path ------------------------------------------------------
// Bound comparison, emptiness, and the interval predicates/transforms built
// from them run billions of times per materialization (every IntervalSet
// kernel bottoms out here), so they live in the header where the Rational
// fast paths inline through.

namespace internal {

// Three-way compare of two *lower* bounds by the position where the interval
// effectively starts: -inf first; at equal finite values a closed bound
// starts before an open one.
inline int CompareLower(const Bound& a, const Bound& b) {
  if (a.infinite || b.infinite) {
    if (a.infinite && b.infinite) return 0;
    return a.infinite ? -1 : 1;
  }
  if (a.value < b.value) return -1;
  if (b.value < a.value) return 1;
  if (a.open == b.open) return 0;
  return a.open ? 1 : -1;
}

// Three-way compare of two *upper* bounds by where the interval effectively
// ends: +inf last; at equal finite values an open bound ends before a
// closed one.
inline int CompareUpper(const Bound& a, const Bound& b) {
  if (a.infinite || b.infinite) {
    if (a.infinite && b.infinite) return 0;
    return a.infinite ? 1 : -1;
  }
  if (a.value < b.value) return -1;
  if (b.value < a.value) return 1;
  if (a.open == b.open) return 0;
  return a.open ? -1 : 1;
}

inline bool BoundsNonEmpty(const Bound& lo, const Bound& hi) {
  if (lo.infinite || hi.infinite) return true;
  if (lo.value < hi.value) return true;
  if (hi.value < lo.value) return false;
  return !lo.open && !hi.open;  // single point needs both sides closed
}

}  // namespace internal

inline std::optional<Interval> Interval::Make(Bound lo, Bound hi) {
  if (!internal::BoundsNonEmpty(lo, hi)) return std::nullopt;
  if (lo.infinite) lo.open = true;
  if (hi.infinite) hi.open = true;
  return Interval(lo, hi);
}

inline std::optional<Interval> Interval::Intersect(
    const Interval& other) const {
  Bound lo = internal::CompareLower(lo_, other.lo_) >= 0 ? lo_ : other.lo_;
  Bound hi = internal::CompareUpper(hi_, other.hi_) <= 0 ? hi_ : other.hi_;
  return Make(lo, hi);
}

inline bool Interval::Overlaps(const Interval& other) const {
  const Bound& lo =
      internal::CompareLower(lo_, other.lo_) >= 0 ? lo_ : other.lo_;
  const Bound& hi =
      internal::CompareUpper(hi_, other.hi_) <= 0 ? hi_ : other.hi_;
  return internal::BoundsNonEmpty(lo, hi);
}

inline bool Interval::Contains(const Interval& other) const {
  return internal::CompareLower(lo_, other.lo_) <= 0 &&
         internal::CompareUpper(other.hi_, hi_) <= 0;
}

inline bool Interval::StartsBefore(const Interval& other) const {
  int c = internal::CompareLower(lo_, other.lo_);
  if (c != 0) return c < 0;
  return internal::CompareUpper(hi_, other.hi_) < 0;
}

inline bool Interval::StrictlyBefore(const Interval& other) const {
  if (hi_.infinite || other.lo_.infinite) return false;
  if (hi_.value < other.lo_.value) return true;
  return hi_.value == other.lo_.value && hi_.open && other.lo_.open;
}

inline bool Interval::Unionable(const Interval& other) const {
  // The union is a single interval exactly when there is no uncovered gap
  // in either direction; StrictlyBefore is precisely "gap after me".
  return !StrictlyBefore(other) && !other.StrictlyBefore(*this);
}

inline Interval Interval::Hull(const Interval& other) const {
  Bound lo = internal::CompareLower(lo_, other.lo_) <= 0 ? lo_ : other.lo_;
  Bound hi = internal::CompareUpper(hi_, other.hi_) >= 0 ? hi_ : other.hi_;
  return Interval(lo, hi);
}

inline Interval Interval::UnionWith(const Interval& other) const {
  return Hull(other);  // no gap by precondition, so the hull is the union
}

inline bool Interval::IsPunctual() const {
  return !lo_.infinite && !hi_.infinite && lo_.value == hi_.value;
}

inline bool Interval::Contains(const Rational& t) const {
  if (!lo_.infinite) {
    if (t < lo_.value) return false;
    if (t == lo_.value && lo_.open) return false;
  }
  if (!hi_.infinite) {
    if (hi_.value < t) return false;
    if (t == hi_.value && hi_.open) return false;
  }
  return true;
}

}  // namespace dmtl

#endif  // DMTL_TEMPORAL_INTERVAL_H_
