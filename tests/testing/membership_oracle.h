#ifndef DMTL_TESTS_TESTING_MEMBERSHIP_ORACLE_H_
#define DMTL_TESTS_TESTING_MEMBERSHIP_ORACLE_H_

// A membership checker for the IntervalSet kernels that shares none of
// them.
//
// A set is given as an explicit list of dense intervals (which may overlap
// or touch) and point runs (lo, step, n). Each operation is evaluated at a
// time point straight from its DatalogMTL definition over those lists,
// reading nothing but the bounds. Between two consecutive critical points
// (every finite endpoint and every run point) membership in a finite union
// of intervals is constant, so a kernel's output agrees with the definition
// everywhere iff it agrees at every critical point - of the inputs, moved by
// the operator's window bounds, and of the output itself - at the midpoint
// between each consecutive two, and one point beyond each end. The window
// quantifiers (some / every s with t - s in rho) use the same argument over
// the window's own endpoints.
//
// ToIntervalSet builds the kernel input from the lists through the union
// kernels under test; every check also compares that input with its list.

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/temporal/interval.h"
#include "src/temporal/interval_set.h"
#include "src/temporal/rational.h"

namespace dmtl {

// {lo + k*step : 0 <= k < n}.
struct PointRunSpec {
  Rational lo;
  Rational step;
  int64_t n;
};

struct ExplicitSet {
  std::vector<Interval> dense;
  std::vector<PointRunSpec> runs;

  std::string ToString() const {
    std::ostringstream os;
    os << "dense{";
    for (const Interval& iv : dense) os << ' ' << iv.ToString();
    os << " } runs{";
    for (const PointRunSpec& r : runs) {
      os << " (" << r.lo.ToString() << ", " << r.step.ToString() << ", "
         << r.n << ")";
    }
    os << " }";
    return os.str();
  }
};

namespace membership {

// t lies within <lo, hi>.
inline bool InBounds(const Bound& lo, const Bound& hi, const Rational& t) {
  if (!lo.infinite && (t < lo.value || (lo.open && t == lo.value))) {
    return false;
  }
  if (!hi.infinite && (hi.value < t || (hi.open && t == hi.value))) {
    return false;
  }
  return true;
}

inline bool Member(const ExplicitSet& s, const Rational& t) {
  for (const Interval& iv : s.dense) {
    if (InBounds(iv.lo(), iv.hi(), t)) return true;
  }
  for (const PointRunSpec& r : s.runs) {
    if (t < r.lo) continue;
    Rational k = (t - r.lo) / r.step;
    if (k.is_integer() && k.numerator() < r.n) return true;
  }
  return false;
}

inline void AddBound(const Bound& b, std::vector<Rational>* out) {
  if (!b.infinite) out->push_back(b.value);
}

// Every finite endpoint and run point of s.
inline std::vector<Rational> Criticals(const ExplicitSet& s) {
  std::vector<Rational> out;
  for (const Interval& iv : s.dense) {
    AddBound(iv.lo(), &out);
    AddBound(iv.hi(), &out);
  }
  for (const PointRunSpec& r : s.runs) {
    for (int64_t k = 0; k < r.n; ++k) out.push_back(r.lo + Rational(k) * r.step);
  }
  return out;
}

// Every finite endpoint of `pieces` (a kernel's output, read as intervals).
inline std::vector<Rational> Criticals(const std::vector<Interval>& pieces) {
  std::vector<Rational> out;
  for (const Interval& iv : pieces) {
    AddBound(iv.lo(), &out);
    AddBound(iv.hi(), &out);
  }
  return out;
}

// `crit` moved by +-rho.lo and +-rho.hi, with the originals kept: where a
// window operator's result can change.
inline std::vector<Rational> Spread(const std::vector<Rational>& crit,
                                    const Interval& rho) {
  std::vector<Rational> out = crit;
  for (const Bound* b : {&rho.lo(), &rho.hi()}) {
    if (b->infinite) continue;
    for (const Rational& c : crit) {
      out.push_back(c + b->value);
      out.push_back(c - b->value);
    }
  }
  return out;
}

// The sorted distinct criticals, the midpoint of each consecutive two and
// one point beyond each end.
inline std::vector<Rational> Samples(std::vector<Rational> crit) {
  std::sort(crit.begin(), crit.end());
  crit.erase(std::unique(crit.begin(), crit.end()), crit.end());
  std::vector<Rational> out;
  if (crit.empty()) return {Rational(0)};
  out.push_back(crit.front() - Rational(1));
  for (size_t i = 0; i < crit.size(); ++i) {
    out.push_back(crit[i]);
    if (i + 1 < crit.size()) {
      out.push_back((crit[i] + crit[i + 1]) / Rational(2));
    }
  }
  out.push_back(crit.back() + Rational(1));
  return out;
}

// Some point (any) or every point (!any) of the window <lo, hi> satisfies
// `in`, whose membership changes only at `crit`.
inline bool Quantify(const Bound& lo, const Bound& hi,
                     std::vector<Rational> crit,
                     const std::function<bool(const Rational&)>& in,
                     bool any) {
  AddBound(lo, &crit);
  AddBound(hi, &crit);
  for (const Rational& u : Samples(std::move(crit))) {
    if (!InBounds(lo, hi, u)) continue;
    if (in(u) == any) return any;
  }
  return !any;
}

// Negates a bound's value (the reflection t -> -t), keeping openness.
inline Bound Negated(Bound b) {
  if (!b.infinite) b.value = -b.value;
  return b;
}
inline Bound Moved(Bound b, const Rational& d) {
  if (!b.infinite) b.value = b.value + d;
  return b;
}

// The window {s : t - s in rho} (past) or {s : s - t in rho} (future).
inline std::pair<Bound, Bound> Window(const Interval& rho, const Rational& t,
                                      bool future) {
  if (future) return {Moved(rho.lo(), t), Moved(rho.hi(), t)};
  return {Moved(Negated(rho.hi()), t), Moved(Negated(rho.lo()), t)};
}

// diamond (some s) / box (every s) over the past or future window of t.
inline bool MetricAt(const ExplicitSet& m, const Interval& rho,
                     const Rational& t, bool future, bool diamond) {
  auto [lo, hi] = Window(rho, t, future);
  return Quantify(lo, hi, Criticals(m),
                  [&](const Rational& s) { return Member(m, s); }, diamond);
}

// M1 Since_rho M2 (or Until, mirrored) at t: some s in the window with M2
// at s and M1 throughout the open gap between s and t.
inline bool SinceAt(const ExplicitSet& m1, const ExplicitSet& m2,
                    const Interval& rho, const Rational& t, bool until) {
  auto [lo, hi] = Window(rho, t, until);
  std::vector<Rational> crit1 = Criticals(m1);
  std::vector<Rational> crit = Criticals(m2);
  crit.insert(crit.end(), crit1.begin(), crit1.end());
  crit.push_back(t);
  auto witness = [&](const Rational& s) {
    if (!Member(m2, s)) return false;
    if (s == t) return true;
    const Rational& a = until ? t : s;
    const Rational& b = until ? s : t;
    return Quantify(Bound::Open(a), Bound::Open(b), crit1,
                    [&](const Rational& r) { return Member(m1, r); },
                    /*any=*/false);
  };
  return Quantify(lo, hi, crit, witness, /*any=*/true);
}

// Empty when `result` holds exactly where `expected` does at every sample
// of `crit` and of the result's own endpoints; otherwise the first
// disagreement.
inline std::string Disagreement(
    const IntervalSet& result, std::vector<Rational> crit,
    const std::function<bool(const Rational&)>& expected) {
  const std::vector<Interval> pieces = result.intervals();
  std::vector<Rational> own = Criticals(pieces);
  crit.insert(crit.end(), own.begin(), own.end());
  for (const Rational& t : Samples(std::move(crit))) {
    bool got = false;
    for (const Interval& iv : pieces) got = got || InBounds(iv.lo(), iv.hi(), t);
    if (got != expected(t)) {
      return "at t=" + t.ToString() + " the kernel says " +
             (got ? "in" : "out") + ": " + result.ToString();
    }
  }
  return "";
}

}  // namespace membership

// The kernel input for `s`: its runs and dense intervals unioned in the
// order listed.
inline IntervalSet ToIntervalSet(const ExplicitSet& s) {
  IntervalSet out;
  for (const PointRunSpec& r : s.runs) {
    out.UnionWith(IntervalSet::Run(r.lo, r.step, r.n));
  }
  for (const Interval& iv : s.dense) out.Add(iv);
  return out;
}

// Random explicit sets on the run grids the contract and the scaling tests
// meet: steps 1, 1/3 and 7 on a third-integer phase, with closed and open
// dense neighbours that touch, cover or straddle run points, and now and
// then a run that continues another at its next point on another step.
class RunSetFuzzer {
 public:
  explicit RunSetFuzzer(uint64_t seed) : rng_(seed) {}

  ExplicitSet Next() {
    ExplicitSet s;
    const int num_runs = 1 + Pick(2);
    for (int i = 0; i < num_runs; ++i) {
      PointRunSpec r{Rational(Pick(37) - 6, 3), Step(), 2 + Pick(5)};
      if (!s.runs.empty() && Pick(3) == 0) {
        const PointRunSpec& prev = s.runs.back();
        r.lo = prev.lo + Rational(prev.n) * prev.step;
      }
      s.runs.push_back(r);
    }
    const int num_dense = Pick(3);
    for (int i = 0; i < num_dense; ++i) {
      const PointRunSpec& r = s.runs[Pick(static_cast<int>(s.runs.size()))];
      // Anchor on a run point so touching and covering are common.
      Rational at = r.lo + Rational(Pick(static_cast<int>(r.n))) * r.step;
      Rational lo = at - Rational(Pick(3), 3);
      Rational hi = at + Rational(Pick(4), 3);
      Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
      Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
      if (Pick(12) == 0) bhi = Bound::Infinite();
      s.dense.push_back(
          Interval::Make(blo, bhi).value_or(Interval::Point(lo)));
    }
    return s;
  }

  // Windows for the metric operators: punctual ones (a shifted run), ones
  // at least one step wide (a filled run) and narrower ones (a run of
  // slivers), closed and open.
  Interval Rho() {
    Rational a(Pick(7), 3);
    switch (Pick(4)) {
      case 0:
        return Interval::Point(a);
      case 1:
        return Interval::Closed(a, a + Rational(1 + Pick(8)));
      case 2:
        return Interval::Open(a, a + Rational(1, 3) * Rational(1 + Pick(3)));
      default: {
        Bound blo = Pick(2) == 0 ? Bound::Closed(a) : Bound::Open(a);
        return *Interval::Make(blo, Pick(4) == 0
                                        ? Bound::Infinite()
                                        : Bound::Closed(a + Rational(1)));
      }
    }
  }

  int Pick(int n) { return static_cast<int>(rng_() % n); }

 private:
  Rational Step() {
    switch (Pick(3)) {
      case 0:
        return Rational(1);
      case 1:
        return Rational(1, 3);
      default:
        return Rational(7);
    }
  }

  std::mt19937_64 rng_;
};

}  // namespace dmtl

#endif  // DMTL_TESTS_TESTING_MEMBERSHIP_ORACLE_H_
