#include "src/temporal/interval_set.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <vector>

namespace dmtl {

namespace {

std::atomic<uint64_t> g_bulk_merges{0};

// The complement flips inclusion at a cut point: the piece left of a closed
// bound ends open at the same value, and vice versa.
Bound FlipOpenness(Bound b) {
  b.open = !b.open;
  return b;
}

// Appends `iv` to a normalized sequence whose components arrive sorted by
// lower bound but may overlap or touch their predecessor (the dilation and
// merge sweeps below produce exactly this shape). Coalesces into the back
// component when possible; the result stays normalized because a
// non-unionable successor with a later lower bound implies a true gap.
void AppendCoalesce(SmallIntervalVec* out, const Interval& iv) {
  if (!out->empty() && out->back().Unionable(iv)) {
    out->back() = out->back().UnionWith(iv);
  } else {
    out->push_back(iv);
  }
}

// Appends the parts of `x` that the components from `run` on do not
// cover, left to right. `run` points at the first component not strictly
// before `x`; the components are sorted and disjoint. The pieces are
// separated by covered chunks, so they append normalized.
void AppendUncovered(const Interval& x, const Interval* run,
                     const Interval* end, SmallIntervalVec* out) {
  Bound cursor = x.lo();
  for (const Interval* c = run; c != end && !x.StrictlyBefore(*c); ++c) {
    if (!c->lo().infinite) {
      if (auto piece = Interval::Make(cursor, FlipOpenness(c->lo()));
          piece.has_value()) {
        out->push_back(*piece);
      }
    }
    if (c->hi().infinite) return;
    cursor = FlipOpenness(c->hi());
  }
  if (auto tail = Interval::Make(cursor, x.hi()); tail.has_value()) {
    out->push_back(*tail);
  }
}

}  // namespace

uint64_t IntervalSet::BulkMergeCount() {
  return g_bulk_merges.load(std::memory_order_relaxed);
}

IntervalSet IntervalSet::FromIntervals(const std::vector<Interval>& ivs) {
  IntervalSet out;
  if (ivs.empty()) return out;
  g_bulk_merges.fetch_add(1, std::memory_order_relaxed);
  // The caller, RuleVm::WalkGrid, passes the grid points of one batch in
  // walk order: ascending, or descending for a negative step. A list
  // already in start order either way round is appended straight into the
  // output, skipping the heap copy + sort of the general path; the result
  // is the same canonical component list either way.
  auto starts_before = [](const Interval& a, const Interval& b) {
    return a.StartsBefore(b);
  };
  if (std::is_sorted(ivs.begin(), ivs.end(), starts_before)) {
    for (const Interval& iv : ivs) AppendCoalesce(&out.intervals_, iv);
    return out;
  }
  if (std::is_sorted(ivs.rbegin(), ivs.rend(), starts_before)) {
    for (auto it = ivs.rbegin(); it != ivs.rend(); ++it) {
      AppendCoalesce(&out.intervals_, *it);
    }
    return out;
  }
  std::vector<Interval> sorted = ivs;
  std::sort(sorted.begin(), sorted.end(), starts_before);
  for (const Interval& iv : sorted) AppendCoalesce(&out.intervals_, iv);
  return out;
}

bool IntervalSet::Contains(const Rational& t) const {
  // Binary search: first interval not strictly before [t,t].
  Interval point = Interval::Point(t);
  auto it = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [&](const Interval& x) { return x.StrictlyBefore(point); });
  for (; it != intervals_.end(); ++it) {
    if (it->Contains(t)) return true;
    if (point.StrictlyBefore(*it)) break;
  }
  return false;
}

bool IntervalSet::Contains(const Interval& iv) const {
  // Must fit inside a single component (components have true gaps).
  for (const Interval& x : intervals_) {
    if (x.Contains(iv)) return true;
  }
  return false;
}

bool IntervalSet::ContainsSet(const IntervalSet& other) const {
  for (const Interval& iv : other.intervals_) {
    if (!Contains(iv)) return false;
  }
  return true;
}

IntervalSet IntervalSet::Insert(const Interval& iv) {
  // Fast path: appending past the end (the dominant pattern when facts are
  // derived in temporal order). The delta lives in the inline buffer.
  if (intervals_.empty() || intervals_.back().StrictlyBefore(iv)) {
    intervals_.push_back(iv);
    return IntervalSet(iv);
  }
  const size_t first = std::partition_point(
                           intervals_.begin(), intervals_.end(),
                           [&](const Interval& x) {
                             return x.StrictlyBefore(iv);
                           }) -
                       intervals_.begin();
  // Walk the run of components that overlap or touch iv, accumulating the
  // union and collecting the uncovered slices of iv between run members in
  // one forward pass.
  size_t last = first;
  Interval merged = iv;
  IntervalSet delta;
  Bound cursor = iv.lo();
  bool covered_to_end = false;
  while (last < intervals_.size() && !iv.StrictlyBefore(intervals_[last])) {
    const Interval& x = intervals_[last];
    if (merged.Unionable(x)) merged = merged.UnionWith(x);
    if (!covered_to_end) {
      if (x.lo().infinite) {
        // x extends to -inf, so nothing of iv survives left of it.
      } else if (auto piece = Interval::Make(cursor, FlipOpenness(x.lo()));
                 piece.has_value()) {
        delta.intervals_.push_back(*piece);
      }
      if (x.hi().infinite) {
        covered_to_end = true;
      } else {
        cursor = FlipOpenness(x.hi());
      }
    }
    ++last;
  }
  if (!covered_to_end) {
    if (auto tail = Interval::Make(cursor, iv.hi()); tail.has_value()) {
      delta.intervals_.push_back(*tail);
    }
  }
  if (last == first) {
    intervals_.insert_at(first, merged);
  } else {
    intervals_[first] = merged;
    intervals_.erase_range(first + 1, last);
  }
  return delta;
}

void IntervalSet::Add(const Interval& iv) {
  if (intervals_.empty() || intervals_.back().StrictlyBefore(iv)) {
    intervals_.push_back(iv);
    return;
  }
  const size_t first = std::partition_point(
                           intervals_.begin(), intervals_.end(),
                           [&](const Interval& x) {
                             return x.StrictlyBefore(iv);
                           }) -
                       intervals_.begin();
  size_t last = first;
  Interval merged = iv;
  while (last < intervals_.size() && !iv.StrictlyBefore(intervals_[last])) {
    if (merged.Unionable(intervals_[last])) {
      merged = merged.UnionWith(intervals_[last]);
    }
    ++last;
  }
  if (last == first) {
    intervals_.insert_at(first, merged);
  } else {
    intervals_[first] = merged;
    intervals_.erase_range(first + 1, last);
  }
}

void IntervalSet::UnionWith(const IntervalSet& other) {
  if (other.intervals_.empty()) return;
  if (intervals_.empty()) {
    intervals_ = other.intervals_;
    return;
  }
  if (other.intervals_.size() == 1) {
    Add(other.intervals_[0]);
    return;
  }
  g_bulk_merges.fetch_add(1, std::memory_order_relaxed);
  MergeTail(other, nullptr);
}

IntervalSet IntervalSet::UnionWithDelta(const IntervalSet& other) {
  if (other.intervals_.empty()) return IntervalSet();
  if (intervals_.empty()) {
    intervals_ = other.intervals_;
    return other;
  }
  if (other.intervals_.size() == 1) return Insert(other.intervals_[0]);
  IntervalSet fresh;
  MergeTail(other, &fresh);
  // Only a merge that added coverage counts as a bulk sweep.
  if (!fresh.IsEmpty()) g_bulk_merges.fetch_add(1, std::memory_order_relaxed);
  return fresh;
}

void IntervalSet::MergeTail(const IntervalSet& other, IntervalSet* fresh) {
  // Components strictly before other's first one are untouched by the
  // union and cover none of other: leave them where they are and sweep
  // only the tail from there (derivations land near the frontier, so the
  // tail is short).
  const Interval& first_b = other.intervals_.front();
  const size_t split =
      intervals_.back().StrictlyBefore(first_b)
          ? intervals_.size()
          : std::partition_point(intervals_.begin(), intervals_.end(),
                                 [&](const Interval& x) {
                                   return x.StrictlyBefore(first_b);
                                 }) -
                intervals_.begin();
  if (split == intervals_.size()) {
    // Disjoint suffix: plain append, and all of other is new. Reserve ahead
    // so the loop grows the storage once instead of doubling mid-append.
    intervals_.reserve(intervals_.size() + other.intervals_.size());
    for (const Interval& iv : other.intervals_) intervals_.push_back(iv);
    if (fresh != nullptr) *fresh = other;
    return;
  }
  SmallIntervalVec out;
  out.reserve(intervals_.size() - split + other.intervals_.size());
  const Interval* a = intervals_.begin() + split;
  const Interval* const a_end = intervals_.end();
  // `cover` trails `a` for the fresh pieces: the first tail component not
  // strictly before the current b. It only moves forward, but it may sit
  // behind `a` - one wide component of *this can cover several of other's.
  const Interval* cover = a;
  for (const Interval& b : other.intervals_) {
    while (a != a_end && a->StartsBefore(b)) AppendCoalesce(&out, *a++);
    AppendCoalesce(&out, b);
    if (fresh == nullptr) continue;
    // What the stored run does not cover of b is new. Other's gaps
    // separate the pieces of successive b's.
    while (cover != a_end && cover->StrictlyBefore(b)) ++cover;
    AppendUncovered(b, cover, a_end, &fresh->intervals_);
  }
  while (a != a_end) AppendCoalesce(&out, *a++);
  intervals_.erase_range(split, intervals_.size());
  intervals_.reserve(split + out.size());
  for (const Interval& iv : out) intervals_.push_back(iv);
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  if (intervals_.empty() || other.intervals_.empty()) return IntervalSet();
  // Single-component operands take the binary-search clip directly: the VM
  // constantly intersects a chain extent with a one-interval window, and
  // the O(log n + clips) form beats both the gallop and the sweep there.
  if (other.intervals_.size() == 1) return Intersect(other.intervals_[0]);
  if (intervals_.size() == 1) return other.Intersect(intervals_[0]);
  // Asymmetric fast path: probe each component of the small set into the
  // large one by binary search (rule evaluation constantly intersects a
  // punctual row extent with a session-long per-tick chain extent). Clips
  // append directly: each probe's output is confined to its component, and
  // components are separated by true gaps, so the pieces arrive sorted,
  // disjoint, and non-coalescable.
  const size_t small_n = std::min(intervals_.size(), other.intervals_.size());
  const size_t large_n = std::max(intervals_.size(), other.intervals_.size());
  if (small_n != 0 && large_n > 16 && small_n * 8 < large_n) {
    const IntervalSet& small = intervals_.size() <= other.intervals_.size()
                                   ? *this
                                   : other;
    const IntervalSet& large = intervals_.size() <= other.intervals_.size()
                                   ? other
                                   : *this;
    IntervalSet out;
    // The small components ascend, so each lands at or after the previous
    // probe's position: gallop from there instead of bisecting the whole
    // list again (probes cluster near the frontier of the large set, where
    // a restart-from-begin bisection pays the full log cost every time).
    const Interval* base = large.intervals_.begin();
    const Interval* const end = large.intervals_.end();
    for (const Interval& s : small.intervals_) {
      auto before = [&](const Interval& x) { return x.StrictlyBefore(s); };
      const Interval* lo = base;
      const Interval* probe = base;
      size_t step = 1;
      while (probe != end && before(*probe)) {
        lo = probe + 1;
        probe += std::min(step, static_cast<size_t>(end - probe));
        step *= 2;
      }
      const Interval* it = std::partition_point(lo, probe, before);
      base = it;
      for (; it != end; ++it) {
        if (s.StrictlyBefore(*it)) break;
        if (auto x = s.Intersect(*it); x.has_value()) {
          out.intervals_.push_back(*x);
        }
      }
    }
    return out;
  }
  IntervalSet out;
  // Two-pointer sweep over sorted components. Binary-jump each side past
  // the prefix that ends before the other side begins: two frontier-heavy
  // sets (a round's delta extent against a session-long store) overlap only
  // in a narrow window, and the sweep should not walk the long prefix
  // component by component.
  size_t i = 0;
  size_t j = 0;
  if (!intervals_.empty() && !other.intervals_.empty()) {
    const Interval& first_b = other.intervals_.front();
    i = std::partition_point(
            intervals_.begin(), intervals_.end(),
            [&](const Interval& x) { return x.StrictlyBefore(first_b); }) -
        intervals_.begin();
    const Interval& first_a = intervals_.front();
    j = std::partition_point(
            other.intervals_.begin(), other.intervals_.end(),
            [&](const Interval& x) { return x.StrictlyBefore(first_a); }) -
        other.intervals_.begin();
  }
  while (i < intervals_.size() && j < other.intervals_.size()) {
    const Interval& a = intervals_[i];
    const Interval& b = other.intervals_[j];
    if (auto x = a.Intersect(b); x.has_value()) {
      out.intervals_.push_back(*x);
    }
    // Advance whichever ends first.
    int cmp_hi = [&] {
      const Bound& ha = a.hi();
      const Bound& hb = b.hi();
      if (ha.infinite && hb.infinite) return 0;
      if (ha.infinite) return 1;
      if (hb.infinite) return -1;
      if (ha.value < hb.value) return -1;
      if (hb.value < ha.value) return 1;
      if (ha.open == hb.open) return 0;
      return ha.open ? -1 : 1;
    }();
    if (cmp_hi <= 0) {
      ++i;
    }
    if (cmp_hi >= 0) {
      ++j;
    }
  }
  return out;
}

IntervalSet IntervalSet::Intersect(const Interval& iv) const {
  // Binary search to both ends of the run overlapping iv, clip the run's
  // edges, and copy the interior untouched: a normalized set separates
  // components with true gaps, so any component strictly inside the run is
  // wholly contained in iv and needs no bound comparison at all. This is
  // the window clamp on the rule-evaluation emit path; the common 0-2
  // piece result stays inline.
  IntervalSet out;
  const Interval* first = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [&](const Interval& x) { return x.StrictlyBefore(iv); });
  const Interval* last = std::partition_point(
      first, intervals_.end(),
      [&](const Interval& x) { return !iv.StrictlyBefore(x); });
  if (first == last) return out;
  out.intervals_.reserve(static_cast<size_t>(last - first));
  if (auto x = first->Intersect(iv); x.has_value()) {
    out.intervals_.push_back(*x);
  }
  if (last - first == 1) return out;
  for (const Interval* p = first + 1; p + 1 != last; ++p) {
    out.intervals_.push_back(*p);
  }
  if (auto x = (last - 1)->Intersect(iv); x.has_value()) {
    out.intervals_.push_back(*x);
  }
  return out;
}

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  if (intervals_.empty() || other.intervals_.empty()) return *this;
  // Two-pointer sweep: for each component `a`, binary-jump to the first
  // subtrahend component not strictly before it, then chip the overlap run
  // off a left-to-right. Surviving pieces are separated by removed chunks
  // (within a component) or original gaps (across components), so direct
  // appends stay normalized.
  IntervalSet out;
  out.intervals_.reserve(intervals_.size());
  const Interval* j = other.intervals_.begin();
  const Interval* const end = other.intervals_.end();
  for (const Interval& a : intervals_) {
    // Do not advance j inside the run: a wide subtrahend component can
    // overlap several later components of *this.
    j = std::partition_point(
        j, end, [&](const Interval& x) { return x.StrictlyBefore(a); });
    AppendUncovered(a, j, end, &out.intervals_);
  }
  return out;
}

IntervalSet IntervalSet::Complement() const {
  IntervalSet out;
  if (intervals_.empty()) {
    out.intervals_.push_back(Interval::All());
    return out;
  }
  // Gap before the first component.
  const Interval& first = intervals_.front();
  if (!first.lo().infinite) {
    if (auto gap = Interval::Make(Bound::Infinite(), FlipOpenness(first.lo()));
        gap.has_value()) {
      out.intervals_.push_back(*gap);
    }
  }
  // Gaps between components.
  for (size_t i = 0; i + 1 < intervals_.size(); ++i) {
    if (auto gap = Interval::Make(FlipOpenness(intervals_[i].hi()),
                                  FlipOpenness(intervals_[i + 1].lo()));
        gap.has_value()) {
      out.intervals_.push_back(*gap);
    }
  }
  // Gap after the last component.
  const Interval& last = intervals_.back();
  if (!last.hi().infinite) {
    if (auto gap = Interval::Make(FlipOpenness(last.hi()), Bound::Infinite());
        gap.has_value()) {
      out.intervals_.push_back(*gap);
    }
  }
  return out;
}

IntervalSet IntervalSet::Shift(const Rational& delta) const {
  IntervalSet out;
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    out.intervals_.push_back(iv.Shift(delta));
  }
  return out;
}

IntervalSet IntervalSet::DiamondMinus(const Interval& rho) const {
  IntervalSet out;
  // Dilation preserves component order but may bridge gaps, so append with
  // back-coalescing instead of a full Insert per component.
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    AppendCoalesce(&out.intervals_, iv.DiamondMinus(rho));
  }
  return out;
}

IntervalSet IntervalSet::BoxMinus(const Interval& rho) const {
  IntervalSet out;
  // Erosion shrinks every component in place, so existing gaps only widen:
  // survivors append directly.
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    if (auto x = iv.BoxMinus(rho); x.has_value()) {
      out.intervals_.push_back(*x);
    }
  }
  return out;
}

IntervalSet IntervalSet::DiamondPlus(const Interval& rho) const {
  IntervalSet out;
  // Dilation preserves order but may bridge gaps, as in DiamondMinus.
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    AppendCoalesce(&out.intervals_, iv.DiamondPlus(rho));
  }
  return out;
}

IntervalSet IntervalSet::BoxPlus(const Interval& rho) const {
  IntervalSet out;
  out.intervals_.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    if (auto x = iv.BoxPlus(rho); x.has_value()) {
      out.intervals_.push_back(*x);
    }
  }
  return out;
}

IntervalSet IntervalSet::Since(const IntervalSet& m2,
                               const Interval& rho) const {
  IntervalSet out;
  // s == t witnesses: M1 Since M2 degenerates to M2 where 0 in rho.
  if (rho.Contains(Rational(0))) out.UnionWith(m2);
  // Strictly-past witnesses use rho restricted to (0, +inf).
  auto rho_pos = rho.Intersect(
      *Interval::Make(Bound::Open(Rational(0)), Bound::Infinite()));
  if (!rho_pos.has_value()) return out;
  for (const Interval& i1 : intervals_) {
    // The witness s must satisfy s >= i1.lo (the open gap (s,t) tolerates
    // s on the boundary) and the result t <= i1.hi likewise.
    Bound win_lo = i1.lo().infinite ? Bound::Infinite()
                                    : Bound::Closed(i1.lo().value);
    auto window = Interval::Make(win_lo, Bound::Infinite());
    assert(window.has_value());
    for (const Interval& i2 : m2.intervals_) {
      auto j = i2.Intersect(*window);
      if (!j.has_value()) continue;
      Interval reach = j->DiamondMinus(*rho_pos);
      if (!i1.hi().infinite) {
        auto clamp = Interval::Make(Bound::Infinite(),
                                    Bound::Closed(i1.hi().value));
        auto r = reach.Intersect(*clamp);
        if (!r.has_value()) continue;
        reach = *r;
      }
      out.Add(reach);
    }
  }
  return out;
}

IntervalSet IntervalSet::Until(const IntervalSet& m2,
                               const Interval& rho) const {
  IntervalSet out;
  if (rho.Contains(Rational(0))) out.UnionWith(m2);
  auto rho_pos = rho.Intersect(
      *Interval::Make(Bound::Open(Rational(0)), Bound::Infinite()));
  if (!rho_pos.has_value()) return out;
  for (const Interval& i1 : intervals_) {
    Bound win_hi = i1.hi().infinite ? Bound::Infinite()
                                    : Bound::Closed(i1.hi().value);
    auto window = Interval::Make(Bound::Infinite(), win_hi);
    assert(window.has_value());
    for (const Interval& i2 : m2.intervals_) {
      auto j = i2.Intersect(*window);
      if (!j.has_value()) continue;
      Interval reach = j->DiamondPlus(*rho_pos);
      if (!i1.lo().infinite) {
        auto clamp = Interval::Make(Bound::Closed(i1.lo().value),
                                    Bound::Infinite());
        auto r = reach.Intersect(*clamp);
        if (!r.has_value()) continue;
        reach = *r;
      }
      out.Add(reach);
    }
  }
  return out;
}

bool IntervalSet::IsPunctualOnly(std::vector<Rational>* points) const {
  for (const Interval& iv : intervals_) {
    if (!iv.IsPunctual()) return false;
  }
  if (points != nullptr) {
    points->clear();
    points->reserve(intervals_.size());
    for (const Interval& iv : intervals_) points->push_back(iv.lo().value);
  }
  return true;
}

std::string IntervalSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += ' ';
    out += intervals_[i].ToString();
  }
  out += '}';
  return out;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  return os << set.ToString();
}

}  // namespace dmtl
