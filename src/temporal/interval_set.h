#ifndef DMTL_TEMPORAL_INTERVAL_SET_H_
#define DMTL_TEMPORAL_INTERVAL_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/temporal/interval.h"
#include "src/temporal/small_ivec.h"

namespace dmtl {

// A set of rational time points represented as a normalized sequence of
// intervals: sorted, pairwise disjoint, and maximally coalesced (no two
// stored intervals could be merged into one). This is the temporal extent of
// a ground atom in the materialization, and the working currency of rule
// evaluation.
//
// Coalescing respects the dense order on Q: [5,5] and [6,6] remain two
// components (the open gap (5,6) is not covered), while [1,3) and [3,5]
// coalesce to [1,5].
//
// Storage is a SmallIntervalVec: the 1-2 component sets that dominate the
// contract workload (punctual row extents, clamped emissions, insertion
// deltas) live inline without heap allocation.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(const Interval& iv) { intervals_.push_back(iv); }

  // Builds a normalized set from arbitrary (unsorted, overlapping) input in
  // a single sort + coalescing sweep.
  static IntervalSet FromIntervals(const std::vector<Interval>& ivs);

  bool IsEmpty() const { return intervals_.empty(); }
  size_t size() const { return intervals_.size(); }
  const SmallIntervalVec& intervals() const { return intervals_; }

  bool Contains(const Rational& t) const;
  bool Contains(const Interval& iv) const;
  bool ContainsSet(const IntervalSet& other) const;

  // Adds `iv` and returns the portion of `iv` that was not already covered
  // (the semi-naive delta of this insertion; empty when `iv` was already
  // fully contained).
  IntervalSet Insert(const Interval& iv);

  // Adds `iv` without materializing the delta (cheaper when the caller does
  // not need to know what was new).
  void Add(const Interval& iv);

  // Set algebra (all results normalized).
  //
  // UnionWith merges `other` in a single coalescing sweep instead of one
  // O(n) Insert per component; UnionWithDelta additionally returns the
  // newly covered portion of `other` - the interval-level delta the
  // semi-naive engine propagates - from the same sweep. Both leave the
  // components strictly before `other` in place and sweep only the tail;
  // a one-component `other` takes Add/Insert, and one that starts past the
  // end is appended (and is all new).
  void UnionWith(const IntervalSet& other);
  IntervalSet UnionWithDelta(const IntervalSet& other);
  IntervalSet Intersect(const IntervalSet& other) const;
  IntervalSet Intersect(const Interval& iv) const;
  IntervalSet Subtract(const IntervalSet& other) const;
  // All time points NOT in this set.
  IntervalSet Complement() const;

  IntervalSet Shift(const Rational& delta) const;

  // --- MTL operator transforms on the full extent of an atom --------------
  // These are exact under normalization: a box/since window is an interval
  // and therefore must fit inside a single maximal component.
  IntervalSet DiamondMinus(const Interval& rho) const;
  IntervalSet BoxMinus(const Interval& rho) const;
  IntervalSet DiamondPlus(const Interval& rho) const;
  IntervalSet BoxPlus(const Interval& rho) const;

  // Where (M1 Since_rho M2) holds, with *this the extent of M1 and `m2` the
  // extent of M2.
  IntervalSet Since(const IntervalSet& m2, const Interval& rho) const;
  // Where (M1 Until_rho M2) holds, analogously.
  IntervalSet Until(const IntervalSet& m2, const Interval& rho) const;

  // The convex hull <lo of first component, hi of last component>. O(1) on
  // the normalized representation; must not be called on an empty set. The
  // join planner uses hulls as cheap overlap prefilters before paying for
  // exact Intersect (hot enough that it lives in the header).
  Interval Hull() const { return intervals_.front().Hull(intervals_.back()); }

  // True iff every component is a single point; fills `points` if non-null.
  bool IsPunctualOnly(std::vector<Rational>* points = nullptr) const;

  // Process-wide count of bulk coalescing sweeps (UnionWith/UnionWithDelta
  // merges and FromIntervals builds), surfaced in EngineStats. Monotone and
  // global: callers snapshot before/after the region they account.
  static uint64_t BulkMergeCount();

  // "{[1,3) [5,5]}".
  std::string ToString() const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.intervals_ == b.intervals_;
  }
  friend bool operator!=(const IntervalSet& a, const IntervalSet& b) {
    return !(a == b);
  }

  const Interval* begin() const { return intervals_.begin(); }
  const Interval* end() const { return intervals_.end(); }

 private:
  // The shared sweep of UnionWith/UnionWithDelta for a non-empty *this and
  // a multi-component `other`; collects the new pieces into `fresh` when it
  // is non-null.
  void MergeTail(const IntervalSet& other, IntervalSet* fresh);

  SmallIntervalVec intervals_;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace dmtl

#endif  // DMTL_TEMPORAL_INTERVAL_SET_H_
