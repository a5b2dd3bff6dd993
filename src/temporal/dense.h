#ifndef DMTL_TEMPORAL_DENSE_H_
#define DMTL_TEMPORAL_DENSE_H_

#include <cstdint>

#include "src/temporal/interval.h"
#include "src/temporal/rational.h"

namespace dmtl {

// Dense integer-timeline specialization.
//
// Chain data is integral Unix seconds and the shipped programs use integral
// rule bounds, so on the common path every Interval endpoint is an integer
// and every Rational comparison/addition in the set kernels is needless
// generality. When the engine proves at load time that a program+database
// is all-integral (see DenseTimelineEligible in seminaive.cc), it enables
// this thread-local fast path and the IntervalSet kernels re-encode bounds
// as packed int64 keys:
//
//   lower bound  v, open o  ->  key 2v + o
//   upper bound  v, open o  ->  key 2v - o
//
// The packing makes every structural predicate a single integer compare:
//   - interval non-empty        lo_key <= hi_key
//   - a strictly before b       a.hi_key + 1 < b.lo_key
//   - a unionable with b        a.hi_key + 1 >= b.lo_key (sorted order)
// because on the integer timeline [v (open upper) and (v (open lower) are
// adjacent odd/even keys: "(3" (lo 2*3+1=7) minus "3)" (hi 2*3-1=5) is 2,
// while touching closed/open pairs differ by exactly 1.
//
// Infinite bounds map to sentinel keys far outside the encodable range;
// magnitudes are capped well below the sentinels so dilation arithmetic
// (adding rule-range keys during diamond/box transforms) cannot overflow
// or collide with them.
//
// The selection is purely an optimization: every kernel re-verifies
// integrality per element while encoding and bails to the Rational path on
// any miss, so enabling the flag on non-integral data costs a failed encode,
// never correctness.
namespace dense {

using DKey = int64_t;

inline constexpr DKey kNegInf = -(INT64_MAX / 4);
inline constexpr DKey kPosInf = INT64_MAX / 4;
// Cap on |endpoint| (as a raw integer) so 2v +- o plus one dilation by
// another in-range key stays far from the sentinels.
inline constexpr int64_t kMaxMagnitude = INT64_MAX / 32;

// Thread-local enable flag, set by DenseScope while a materialization that
// proved integrality is running on this thread.
namespace internal {
inline thread_local bool g_enabled = false;
}  // namespace internal

inline bool Enabled() { return internal::g_enabled; }

// RAII enable/disable; saves and restores so nested materializations (a
// streaming slide's cut-off run inside a session operation) stay
// independent.
class DenseScope {
 public:
  explicit DenseScope(bool enable) : saved_(internal::g_enabled) {
    internal::g_enabled = enable;
  }
  ~DenseScope() { internal::g_enabled = saved_; }
  DenseScope(const DenseScope&) = delete;
  DenseScope& operator=(const DenseScope&) = delete;

 private:
  bool saved_;
};

// --- key encoding --------------------------------------------------------

// Encodes a lower bound; returns false when the bound is not an in-range
// integer (caller bails to the Rational kernel).
inline bool EncodeLo(const Bound& b, DKey* out) {
  if (b.infinite) {
    *out = kNegInf;
    return true;
  }
  if (!b.value.is_integer()) return false;
  const int64_t v = b.value.numerator();
  if (v > kMaxMagnitude || v < -kMaxMagnitude) return false;
  *out = 2 * v + (b.open ? 1 : 0);
  return true;
}

// Encodes an upper bound.
inline bool EncodeHi(const Bound& b, DKey* out) {
  if (b.infinite) {
    *out = kPosInf;
    return true;
  }
  if (!b.value.is_integer()) return false;
  const int64_t v = b.value.numerator();
  if (v > kMaxMagnitude || v < -kMaxMagnitude) return false;
  *out = 2 * v - (b.open ? 1 : 0);
  return true;
}

inline bool EncodeInterval(const Interval& iv, DKey* lo, DKey* hi) {
  return EncodeLo(iv.lo(), lo) && EncodeHi(iv.hi(), hi);
}

// --- key decoding --------------------------------------------------------
// The sentinel keys decode to Bound::Infinite(), which matches the
// Rational-path representation byte for byte (infinite bounds always carry
// value 0 / open true in this codebase).

inline Bound DecodeLo(DKey k) {
  if (k <= kNegInf) return Bound::Infinite();
  const int64_t open = k & 1;
  return Bound{Rational((k - open) >> 1), open != 0, false};
}

inline Bound DecodeHi(DKey k) {
  if (k >= kPosInf) return Bound::Infinite();
  const int64_t open = k & 1;
  return Bound{Rational((k + open) >> 1), open != 0, false};
}

// Requires NonEmpty(lo, hi). Decoded bounds are already normalized (the
// sentinels decode to Bound::Infinite(), open == true), so the unchecked
// constructor applies.
inline Interval DecodeInterval(DKey lo, DKey hi) {
  return Interval::MakeUnchecked(DecodeLo(lo), DecodeHi(hi));
}

// --- structural predicates on keys ---------------------------------------

// [loK, hiK] denotes a non-empty set of points.
inline bool NonEmpty(DKey lo, DKey hi) { return lo <= hi; }

// Every point of a precedes every point of b with a gap in between (the
// two intervals neither overlap nor touch): used for both StrictlyBefore
// and (by symmetry) Unionable.
inline bool GapBefore(DKey a_hi, DKey b_lo) { return a_hi + 1 < b_lo; }

// --- dilation arithmetic (diamond/box transforms) ------------------------
// Adding two lower-bound keys: values add, openness ORs - except both open
// would double-count the +1, hence the (a & b & 1) parity correction.
// Mirrored for upper bounds (open carries -1). Sentinels saturate (a shift
// of an infinite bound stays infinite, matching Bound arithmetic on the
// Rational path); one dilation of in-range finite keys can neither
// overflow nor reach a sentinel (|result| <= 2 * (2 * kMaxMagnitude + 1)
// << kPosInf).

inline DKey AddLoKeys(DKey a, DKey b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  return a + b - (a & b & 1);
}
inline DKey AddHiKeys(DKey a, DKey b) {
  if (a == kPosInf || b == kPosInf) return kPosInf;
  return a + b + (a & b & 1);
}
// Lower-bound key `a` minus upper-bound key `r` yields a lower bound
// (DiamondPlus shifts lo back by rho.hi); openness still ORs.
inline DKey SubLoHi(DKey a, DKey r) {
  if (a == kNegInf || r == kPosInf) return kNegInf;
  return a - r - (a & r & 1);
}
// Upper-bound key `a` minus lower-bound key `r` yields an upper bound.
inline DKey SubHiLo(DKey a, DKey r) {
  if (a == kPosInf || r == kNegInf) return kPosInf;
  return a - r + (a & r & 1);
}

// --- erosion arithmetic (box transforms) ---------------------------------
// Box erosion uses a different openness rule: the result endpoint is
// *closed* whenever the window endpoint is open (the window then excludes
// its own boundary, so the fact's endpoint suffices), otherwise it
// inherits the fact's openness. Derived case-by-case from the parity bits;
// callers handle sentinels explicitly (the Rational path's infinite-bound
// cases do not reduce to key arithmetic). All operands must be finite.

// BoxMinus lower bound: fact lo key `a` advanced by window hi key `r`.
inline DKey BoxLoPlusHi(DKey a, DKey r) { return a + r + (r & 1) - (a & r & 1); }
// BoxMinus upper bound: fact hi key `a` advanced by window lo key `r`.
inline DKey BoxHiPlusLo(DKey a, DKey r) { return a + r - (r & 1) + (a & r & 1); }
// BoxPlus lower bound: fact lo key `a` set back by window lo key `r`.
inline DKey BoxLoMinusLo(DKey a, DKey r) { return a - r + (r & 1) - (a & r & 1); }
// BoxPlus upper bound: fact hi key `a` set back by window hi key `r`.
inline DKey BoxHiMinusHi(DKey a, DKey r) { return a - r - (r & 1) + (a & r & 1); }

}  // namespace dense
}  // namespace dmtl

#endif  // DMTL_TEMPORAL_DENSE_H_
