#ifndef DMTL_TEMPORAL_INTERVAL_SET_H_
#define DMTL_TEMPORAL_INTERVAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/temporal/interval.h"
#include "src/temporal/small_ivec.h"

namespace dmtl {

// A set of rational time points, seen from outside as a normalized sequence
// of intervals ("pieces"): sorted, pairwise disjoint, and maximally
// coalesced (no two pieces could be merged into one). This is the temporal
// extent of a ground atom in the materialization, and the working currency
// of rule evaluation.
//
// Coalescing respects the dense order on Q: [5,5] and [6,6] remain two
// pieces (the open gap (5,6) is not covered), while [1,3) and [3,5]
// coalesce to [1,5].
//
// Stored, the pieces are grouped into components. A component is either a
// dense interval (one piece) or a point run {first + k*step : 0 <= k < n}
// with step > 0 and n >= 2 (n punctual pieces): the per-second persistence
// grids of the contract workload are a handful of runs instead of one
// component per second. The grouping is canonical - the greedy left-to-right
// partition of the pieces, where a lone point followed by a point pairs into
// a run and a run absorbs the point one step past its end - so equal sets
// have equal components. Every kernel builds its result through one
// normalizer (Append/AppendRun) in piece order.
//
// The piece view is the observable contract: size() counts pieces,
// iteration yields pieces, ToString prints them. Callers that print, encode
// or account a set see exactly what the one-component-per-piece
// representation showed.
//
// Storage is a SmallVec: the 1-2 component sets that dominate the contract
// workload live inline without heap allocation.
class IntervalSet {
 public:
  // A dense interval (count 1, step 0) or a point run (count >= 2).
  struct Component {
    Interval hull;   // the dense interval; for a run, [first, last]
    Rational step;   // 0 for a dense component
    int64_t count;   // 1 for a dense component; a run's point count

    bool is_run() const { return count > 1; }
    const Rational& first() const { return hull.lo().value; }
    const Rational& last() const { return hull.hi().value; }
    Rational At(int64_t k) const { return first() + Rational(k) * step; }
    // The k-th piece: the dense interval, or the k-th point of the run.
    Interval Piece(int64_t k) const {
      return is_run() ? Interval::Point(At(k)) : hull;
    }
    bool Contains(const Rational& t) const;

    friend bool operator==(const Component& a, const Component& b) {
      return a.count == b.count && a.hull == b.hull && a.step == b.step;
    }
  };
  using ComponentVec = SmallVec<Component>;

  // Forward iterator over the pieces (runs expand to their points).
  class PieceIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Interval;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Interval;

    PieceIterator(const Component* c, int64_t k) : c_(c), k_(k) {}
    Interval operator*() const { return c_->Piece(k_); }
    PieceIterator& operator++() {
      if (++k_ == c_->count) {
        ++c_;
        k_ = 0;
      }
      return *this;
    }
    friend bool operator==(const PieceIterator& a, const PieceIterator& b) {
      return a.c_ == b.c_ && a.k_ == b.k_;
    }
    friend bool operator!=(const PieceIterator& a, const PieceIterator& b) {
      return !(a == b);
    }

   private:
    const Component* c_;
    int64_t k_;
  };

  IntervalSet() = default;
  explicit IntervalSet(const Interval& iv) { Append(iv); }

  // Builds a normalized set from arbitrary (unsorted, overlapping) input in
  // a single sort + coalescing sweep.
  static IntervalSet FromIntervals(const std::vector<Interval>& ivs);

  // The points {first + k*step : 0 <= k < count}; step > 0, count >= 1.
  static IntervalSet Run(const Rational& first, const Rational& step,
                         int64_t count);

  bool IsEmpty() const { return comps_.empty(); }
  // The number of pieces.
  size_t size() const { return pieces_; }
  size_t num_components() const { return comps_.size(); }
  const ComponentVec& components() const { return comps_; }
  // The pieces, expanded into a vector (O(pieces)).
  std::vector<Interval> intervals() const;

  bool Contains(const Rational& t) const;
  bool Contains(const Interval& iv) const;
  bool ContainsSet(const IntervalSet& other) const;

  // Adds `iv` and returns the portion of `iv` that was not already covered
  // (the semi-naive delta of this insertion; empty when `iv` was already
  // fully contained).
  IntervalSet Insert(const Interval& iv);

  // Adds `iv` without materializing the delta.
  void Add(const Interval& iv);

  // Set algebra (all results normalized).
  //
  // UnionWith merges `other` in a single sweep; UnionWithDelta additionally
  // returns the newly covered portion of `other` - the interval-level delta
  // the semi-naive engine propagates. Both leave the components strictly
  // before `other` in place and sweep only the tail; an `other` that starts
  // past the end is appended (and is all new), growing the last run when it
  // continues it.
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
  // and therefore must fit inside a single maximal piece.
  IntervalSet DiamondMinus(const Interval& rho) const;
  IntervalSet BoxMinus(const Interval& rho) const;
  IntervalSet DiamondPlus(const Interval& rho) const;
  IntervalSet BoxPlus(const Interval& rho) const;

  // Where (M1 Since_rho M2) holds, with *this the extent of M1 and `m2` the
  // extent of M2.
  IntervalSet Since(const IntervalSet& m2, const Interval& rho) const;
  // Where (M1 Until_rho M2) holds, analogously.
  IntervalSet Until(const IntervalSet& m2, const Interval& rho) const;

  // The convex hull <lo of first piece, hi of last piece>. O(1); must not
  // be called on an empty set. The join planner uses hulls as cheap overlap
  // prefilters before paying for exact Intersect (hot enough that it lives
  // in the header).
  Interval Hull() const { return comps_.front().hull.Hull(comps_.back().hull); }

  // True iff every piece is a single point; fills `points` if non-null.
  bool IsPunctualOnly(std::vector<Rational>* points = nullptr) const;

  // Count of bulk coalescing sweeps (UnionWith/UnionWithDelta merges and
  // FromIntervals builds) made on the calling thread, surfaced in
  // EngineStats. Monotone: callers snapshot before/after the region they
  // account, which sweeps on other threads never enter.
  static uint64_t BulkMergeCount();

  // "{[1,3) [5,5]}".
  std::string ToString() const;

  friend bool operator==(const IntervalSet& a, const IntervalSet& b) {
    return a.pieces_ == b.pieces_ && a.comps_ == b.comps_;
  }
  friend bool operator!=(const IntervalSet& a, const IntervalSet& b) {
    return !(a == b);
  }

  PieceIterator begin() const { return PieceIterator(comps_.begin(), 0); }
  PieceIterator end() const { return PieceIterator(comps_.end(), 0); }

 private:
  // The normalizer. Appends a piece, a run of points, or a component whose
  // first piece starts no earlier than the last piece appended so far (it
  // may overlap or touch it): coalesces into the back component, absorbs
  // points a dense back covers, pairs a lone point with the next point and
  // grows a run by the point one step past its end.
  void Append(const Interval& iv);
  void AppendRun(Rational first, const Rational& step, int64_t count);
  void Append(const Component& c);
  // Points [k0, k1) of run `c` (k0 < k1).
  void AppendPoints(const Component& c, int64_t k0, int64_t k1);
  // a ∩ b, for components whose hulls may overlap: a run clips to a run
  // against a dense component or a run on its grid, and is tested point
  // by point against a run of another step.
  void AppendIntersection(const Component& a, const Component& b);
  // `run` dilated by diamondminus_rho (diamondplus_rho when `future`): a
  // punctual rho shifts it, a rho whose neighbouring windows touch fills
  // it into one interval, and any other leaves one interval per point.
  void AppendDilatedRun(const Component& run, const Interval& rho,
                        bool future);

  // *this minus the components [b_begin, b_end) of a normalized set.
  IntervalSet Subtract(const Component* b_begin, const Component* b_end) const;

  // The shared sweep of UnionWith/UnionWithDelta for a non-empty *this and
  // an `other` that does not start past its end; collects the new pieces
  // into `fresh` when it is non-null.
  void MergeTail(const IntervalSet& other, IntervalSet* fresh);

  ComponentVec comps_;
  size_t pieces_ = 0;
};

std::ostream& operator<<(std::ostream& os, const IntervalSet& set);

}  // namespace dmtl

#endif  // DMTL_TEMPORAL_INTERVAL_SET_H_
