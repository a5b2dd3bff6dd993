#include "src/temporal/interval_set.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace dmtl {

namespace {

using Component = IntervalSet::Component;
using ComponentVec = IntervalSet::ComponentVec;

// Per thread: one run stays on one thread, so its before/after difference
// counts its own sweeps only.
thread_local uint64_t g_bulk_merges = 0;

// The complement flips inclusion at a cut point: the piece left of a closed
// bound ends open at the same value, and vice versa.
Bound FlipOpenness(Bound b) {
  b.open = !b.open;
  return b;
}

Component DenseComponent(const Interval& iv) { return {iv, Rational(0), 1}; }

Component RunComponent(const Rational& first, const Rational& step,
                       int64_t count) {
  return {Interval::Closed(first, first + Rational(count - 1) * step), step,
          count};
}

// The last piece of a non-empty component list.
Interval LastPiece(const ComponentVec& comps) {
  const Component& c = comps.back();
  return c.is_run() ? Interval::Point(c.last()) : c.hull;
}

// --- run index arithmetic (exact, O(1)) -----------------------------------

// Smallest k whose point lies within lower bound `lo`; run.count if none.
int64_t FirstIndexFrom(const Component& run, const Bound& lo) {
  if (lo.infinite || lo.value < run.first()) return 0;
  if (run.last() < lo.value) return run.count;
  Rational q = (lo.value - run.first()) / run.step;
  int64_t k = q.Ceil();
  if (lo.open && q.is_integer()) ++k;
  return std::min(k, run.count);
}

// Largest k whose point lies within upper bound `hi`; -1 if none.
int64_t LastIndexTo(const Component& run, const Bound& hi) {
  if (hi.infinite || run.last() < hi.value) return run.count - 1;
  if (hi.value < run.first()) return -1;
  Rational q = (hi.value - run.first()) / run.step;
  int64_t k = q.Floor();
  if (hi.open && q.is_integer()) --k;
  return std::max<int64_t>(k, -1);
}

// True when runs a and b lie on one grid: equal steps and a phase offset
// that is a whole number of steps. Every point of either that lies within
// the other's hull is then a point of the other.
bool SameGrid(const Component& a, const Component& b) {
  return a.step == b.step && ((b.first() - a.first()) / a.step).is_integer();
}

// The index range [i0, i1] of run's points inside `iv` (empty when
// i0 > i1): the points a dense component, or a same-grid run with hull iv,
// covers.
std::pair<int64_t, int64_t> CoveredRange(const Component& run,
                                         const Interval& iv) {
  return {FirstIndexFrom(run, iv.lo()), LastIndexTo(run, iv.hi())};
}

// The index of t among run's points, or -1.
int64_t IndexOf(const Component& run, const Rational& t) {
  if (t < run.first() || run.last() < t) return -1;
  const Rational q = (t - run.first()) / run.step;
  return q.is_integer() ? q.numerator() : -1;
}

// Calls fn(i), ascending, for each index i into run a whose point run b
// holds too, for runs of unequal steps: the points of whichever run has
// fewer inside the other's hull are tested against the other (sparse
// event points, which pair into two-point runs, against a grid test two
// points, not the grid).
template <typename Fn>
void ForSharedPoints(const Component& a, const Component& b, Fn&& fn) {
  auto [i0, i1] = CoveredRange(a, b.hull);
  auto [j0, j1] = CoveredRange(b, a.hull);
  if (i1 - i0 <= j1 - j0) {
    for (int64_t i = i0; i <= i1; ++i) {
      if (b.Contains(a.At(i))) fn(i);
    }
    return;
  }
  for (int64_t j = j0; j <= j1; ++j) {
    if (const int64_t i = IndexOf(a, b.At(j)); i >= 0) fn(i);
  }
}

// A position in a component list: the remainder of component `c` from its
// k-th piece on.
struct Cursor {
  const Component* c;
  const Component* end;
  int64_t k = 0;

  bool done() const { return c == end; }
  Bound lo() const {
    return c->is_run() ? Bound::Closed(c->At(k)) : c->hull.lo();
  }
  void Next() {
    ++c;
    k = 0;
  }
};

}  // namespace

bool IntervalSet::Component::Contains(const Rational& t) const {
  return is_run() ? IndexOf(*this, t) >= 0 : hull.Contains(t);
}

uint64_t IntervalSet::BulkMergeCount() {
  return g_bulk_merges;
}

// --- the normalizer -------------------------------------------------------

void IntervalSet::Append(const Interval& iv) {
  if (comps_.empty()) {
    comps_.push_back(DenseComponent(iv));
    ++pieces_;
    return;
  }
  Component& b = comps_.back();
  if (!b.is_run()) {
    if (b.hull.Unionable(iv)) {
      b.hull = b.hull.UnionWith(iv);
      return;
    }
    ++pieces_;
    if (b.hull.IsPunctual() && iv.IsPunctual()) {
      // A lone point followed by a point: the two start a run.
      assert(b.first() < iv.lo().value);
      b = RunComponent(b.first(), iv.lo().value - b.first(), 2);
    } else {
      comps_.push_back(DenseComponent(iv));
    }
    return;
  }
  const Interval last = Interval::Point(b.last());
  if (last.Unionable(iv)) {
    // iv touches or covers the run's last point, which leaves the run and
    // coalesces with iv (iv starts no earlier, so nothing else of the run
    // is touched). The piece count holds: the point becomes the new piece.
    if (last.Contains(iv)) return;
    if (--b.count == 1) {
      b = DenseComponent(Interval::Point(b.first()));
    } else {
      b.hull = Interval::Closed(b.first(), b.At(b.count - 1));
    }
    comps_.push_back(DenseComponent(last.UnionWith(iv)));
    return;
  }
  ++pieces_;
  if (iv.IsPunctual() && iv.lo().value == b.last() + b.step) {
    ++b.count;
    b.hull = Interval::Closed(b.first(), iv.lo().value);
    return;
  }
  comps_.push_back(DenseComponent(iv));
}

void IntervalSet::AppendRun(Rational first, const Rational& step,
                            int64_t count) {
  while (count > 1 && !comps_.empty()) {
    Component& b = comps_.back();
    if (!b.is_run()) {
      // Leading points the dense back covers or touches are absorbed.
      int64_t k = count;
      if (!b.hull.hi().infinite) {
        k = b.hull.hi().value < first
                ? 0
                : std::min(count,
                           ((b.hull.hi().value - first) / step).Floor() + 1);
      }
      if (k > 0) {
        const Rational end = first + Rational(k - 1) * step;
        b.hull = b.hull.UnionWith(Interval::Closed(first, end));
        first = end + step;
        count -= k;
        continue;
      }
      if (b.hull.IsPunctual()) {
        const Rational gap = first - b.first();
        if (gap == step) {
          b = RunComponent(b.first(), step, count + 1);
          pieces_ += count;
          return;
        }
        b = RunComponent(b.first(), gap, 2);
        ++pieces_;
        first += step;
        --count;
        continue;
      }
    } else if (first == b.last()) {
      first += step;
      --count;
      continue;
    } else if (first == b.last() + b.step) {
      if (step == b.step) {
        b.count += count;
        b.hull = Interval::Closed(b.first(),
                                  first + Rational(count - 1) * step);
        pieces_ += count;
        return;
      }
      ++b.count;
      b.hull = Interval::Closed(b.first(), first);
      ++pieces_;
      first += step;
      --count;
      continue;
    }
    comps_.push_back(RunComponent(first, step, count));
    pieces_ += count;
    return;
  }
  if (count == 1) {
    Append(Interval::Point(first));
  } else if (count > 1) {
    comps_.push_back(RunComponent(first, step, count));
    pieces_ += count;
  }
}

void IntervalSet::Append(const Component& c) {
  if (c.is_run()) {
    AppendRun(c.first(), c.step, c.count);
  } else {
    Append(c.hull);
  }
}

void IntervalSet::AppendPoints(const Component& c, int64_t k0, int64_t k1) {
  AppendRun(c.At(k0), c.step, k1 - k0);
}

// --- construction and queries ---------------------------------------------

IntervalSet IntervalSet::FromIntervals(const std::vector<Interval>& ivs) {
  IntervalSet out;
  if (ivs.empty()) return out;
  ++g_bulk_merges;
  auto starts_before = [](const Interval& a, const Interval& b) {
    return a.StartsBefore(b);
  };
  if (std::is_sorted(ivs.begin(), ivs.end(), starts_before)) {
    for (const Interval& iv : ivs) out.Append(iv);
    return out;
  }
  std::vector<Interval> sorted = ivs;
  std::sort(sorted.begin(), sorted.end(), starts_before);
  for (const Interval& iv : sorted) out.Append(iv);
  return out;
}

IntervalSet IntervalSet::Run(const Rational& first, const Rational& step,
                             int64_t count) {
  IntervalSet out;
  out.AppendRun(first, step, count);
  return out;
}

std::vector<Interval> IntervalSet::intervals() const {
  return std::vector<Interval>(begin(), end());
}

bool IntervalSet::Contains(const Rational& t) const {
  // Binary search: the first component whose hull is not strictly before
  // [t,t]; hulls are disjoint, so only it or a touching successor can hold
  // t.
  Interval point = Interval::Point(t);
  const Component* it = std::partition_point(
      comps_.begin(), comps_.end(),
      [&](const Component& c) { return c.hull.StrictlyBefore(point); });
  for (; it != comps_.end(); ++it) {
    if (it->Contains(t)) return true;
    if (point.StrictlyBefore(it->hull)) break;
  }
  return false;
}

bool IntervalSet::Contains(const Interval& iv) const {
  if (iv.IsPunctual()) return Contains(iv.lo().value);
  // A non-punctual interval must fit inside one dense component.
  const Component* it = std::partition_point(
      comps_.begin(), comps_.end(),
      [&](const Component& c) { return c.hull.StrictlyBefore(iv); });
  for (; it != comps_.end() && !iv.StrictlyBefore(it->hull); ++it) {
    if (!it->is_run() && it->hull.Contains(iv)) return true;
  }
  return false;
}

bool IntervalSet::ContainsSet(const IntervalSet& other) const {
  return other.Subtract(*this).IsEmpty();
}

// --- union ----------------------------------------------------------------

IntervalSet IntervalSet::Insert(const Interval& iv) {
  // Fast path: appending past the end (the dominant pattern when facts are
  // derived in temporal order). The delta lives in the inline buffer.
  if (comps_.empty() || LastPiece(comps_).StrictlyBefore(iv)) {
    Append(iv);
    return IntervalSet(iv);
  }
  IntervalSet fresh;
  MergeTail(IntervalSet(iv), &fresh);
  return fresh;
}

void IntervalSet::Add(const Interval& iv) {
  if (comps_.empty() || LastPiece(comps_).StrictlyBefore(iv)) {
    Append(iv);
    return;
  }
  MergeTail(IntervalSet(iv), nullptr);
}

void IntervalSet::UnionWith(const IntervalSet& other) {
  if (other.IsEmpty()) return;
  if (IsEmpty()) {
    *this = other;
    return;
  }
  if (other.comps_.size() > 1) {
    ++g_bulk_merges;
  }
  MergeTail(other, nullptr);
}

IntervalSet IntervalSet::UnionWithDelta(const IntervalSet& other) {
  if (other.IsEmpty()) return IntervalSet();
  if (IsEmpty()) {
    *this = other;
    return other;
  }
  IntervalSet fresh;
  MergeTail(other, &fresh);
  // Only a multi-component merge that added coverage counts as a bulk
  // sweep.
  if (other.comps_.size() > 1 && !fresh.IsEmpty()) {
    ++g_bulk_merges;
  }
  return fresh;
}

void IntervalSet::MergeTail(const IntervalSet& other, IntervalSet* fresh) {
  const Interval first_b = other.comps_.front().Piece(0);
  if (LastPiece(comps_).StrictlyBefore(first_b)) {
    // Disjoint suffix: append, growing the last run when `other`
    // continues it; all of `other` is new.
    comps_.reserve(comps_.size() + other.comps_.size());
    for (const Component& c : other.comps_) Append(c);
    if (fresh != nullptr) *fresh = other;
    return;
  }
  // Components strictly before other's first piece are untouched by the
  // union and cover none of other: leave them where they are and sweep
  // only the tail from there (derivations land near the frontier, so the
  // tail is short).
  const size_t split =
      std::partition_point(comps_.begin(), comps_.end(),
                           [&](const Component& c) {
                             return c.hull.StrictlyBefore(first_b);
                           }) -
      comps_.begin();
  ComponentVec tail;
  tail.reserve(comps_.size() - split);
  for (size_t i = split; i < comps_.size(); ++i) {
    tail.push_back(comps_[i]);
    pieces_ -= static_cast<size_t>(comps_[i].count);
  }
  if (fresh != nullptr) {
    // What the stored tail does not cover of `other` is new.
    *fresh = other.Subtract(tail.begin(), tail.end());
  }
  comps_.truncate(split);
  // Merge the two component lists in piece order. A run is taken up to the
  // other side's next start; a run that continues on the other side's grid
  // is taken whole and the other side's points it covers are skipped, so
  // re-derivations on one grid merge in O(1).
  Cursor a{tail.begin(), tail.end()};
  Cursor b{other.comps_.begin(), other.comps_.end()};
  while (!a.done() && !b.done()) {
    const bool a_first = internal::CompareLower(a.lo(), b.lo()) <= 0;
    Cursor& x = a_first ? a : b;
    Cursor& y = a_first ? b : a;
    if (!x.c->is_run()) {
      Append(x.c->hull);
      x.Next();
      continue;
    }
    if (y.c->is_run() && SameGrid(*x.c, *y.c)) {
      // Every point of y's component up to x's end is a point of x: take
      // x to the nearer of the two ends and skip what y shares with it.
      const int64_t upto = LastIndexTo(*x.c, y.c->hull.hi()) + 1;
      AppendPoints(*x.c, x.k, upto);
      y.k = FirstIndexFrom(*y.c, Bound::Open(x.c->At(upto - 1)));
      x.k = upto;
      if (x.k == x.c->count) x.Next();
      if (y.k == y.c->count) y.Next();
      continue;
    }
    const int64_t upto = LastIndexTo(*x.c, Bound::Closed(y.lo().value)) + 1;
    AppendPoints(*x.c, x.k, upto);
    x.k = upto;
    if (x.k == x.c->count) x.Next();
  }
  for (Cursor* rest : {&a, &b}) {
    if (rest->done()) continue;
    if (rest->k > 0) {
      AppendPoints(*rest->c, rest->k, rest->c->count);
      rest->Next();
    }
    for (; !rest->done(); rest->Next()) Append(*rest->c);
  }
}

// --- intersection ---------------------------------------------------------

void IntervalSet::AppendIntersection(const Component& a, const Component& b) {
  if (!a.is_run() && !b.is_run()) {
    if (auto x = a.hull.Intersect(b.hull); x.has_value()) Append(*x);
    return;
  }
  const Component& run = a.is_run() ? a : b;
  const Component& other = a.is_run() ? b : a;
  if (!other.is_run() || SameGrid(run, other)) {
    auto [i0, i1] = CoveredRange(run, other.hull);
    if (i0 <= i1) AppendPoints(run, i0, i1 + 1);
    return;
  }
  if (run.step == other.step) return;  // parallel grids never meet
  ForSharedPoints(run, other,
                  [&](int64_t i) { Append(Interval::Point(run.At(i))); });
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  if (IsEmpty() || other.IsEmpty()) return IntervalSet();
  // Single dense operands take the binary-search clip directly: the VM
  // constantly intersects a chain extent with a one-interval window.
  if (other.comps_.size() == 1 && !other.comps_[0].is_run()) {
    return Intersect(other.comps_[0].hull);
  }
  if (comps_.size() == 1 && !comps_[0].is_run()) {
    return other.Intersect(comps_[0].hull);
  }
  IntervalSet out;
  // Asymmetric fast path: probe each component of the small set into the
  // large one by galloping from the previous probe's position (probes
  // cluster near the frontier of the large set). Each probe's output is
  // confined to its component, and component hulls are disjoint, so the
  // pieces arrive in order.
  const size_t small_n = std::min(comps_.size(), other.comps_.size());
  const size_t large_n = std::max(comps_.size(), other.comps_.size());
  if (large_n > 16 && small_n * 8 < large_n) {
    const IntervalSet& small =
        comps_.size() <= other.comps_.size() ? *this : other;
    const IntervalSet& large =
        comps_.size() <= other.comps_.size() ? other : *this;
    const Component* base = large.comps_.begin();
    const Component* const end = large.comps_.end();
    for (const Component& s : small.comps_) {
      auto before = [&](const Component& x) {
        return x.hull.StrictlyBefore(s.hull);
      };
      const Component* lo = base;
      const Component* probe = base;
      size_t step = 1;
      while (probe != end && before(*probe)) {
        lo = probe + 1;
        probe += std::min(step, static_cast<size_t>(end - probe));
        step *= 2;
      }
      const Component* it = std::partition_point(lo, probe, before);
      base = it;
      for (; it != end && !s.hull.StrictlyBefore(it->hull); ++it) {
        out.AppendIntersection(s, *it);
      }
    }
    return out;
  }
  // Two-pointer sweep over the component hulls, binary-jumping each side
  // past the prefix that ends before the other side begins.
  const Component* i = std::partition_point(
      comps_.begin(), comps_.end(), [&](const Component& x) {
        return x.hull.StrictlyBefore(other.comps_.front().hull);
      });
  const Component* j = std::partition_point(
      other.comps_.begin(), other.comps_.end(), [&](const Component& x) {
        return x.hull.StrictlyBefore(comps_.front().hull);
      });
  while (i != comps_.end() && j != other.comps_.end()) {
    out.AppendIntersection(*i, *j);
    // Advance whichever ends first.
    const int cmp_hi = internal::CompareUpper(i->hull.hi(), j->hull.hi());
    if (cmp_hi <= 0) ++i;
    if (cmp_hi >= 0) ++j;
  }
  return out;
}

IntervalSet IntervalSet::Intersect(const Interval& iv) const {
  // Binary search to both ends of the components overlapping iv and clip
  // the two ends: a component strictly inside the range lies wholly in iv
  // (hulls are separated by true gaps). This is the window clamp on the
  // rule-evaluation emit path; a run clips to a run.
  IntervalSet out;
  const Component* first = std::partition_point(
      comps_.begin(), comps_.end(),
      [&](const Component& c) { return c.hull.StrictlyBefore(iv); });
  const Component* last = std::partition_point(
      first, comps_.end(),
      [&](const Component& c) { return !iv.StrictlyBefore(c.hull); });
  if (first == last) return out;
  const Component window = DenseComponent(iv);
  out.AppendIntersection(*first, window);
  if (last - first == 1) return out;
  out.comps_.reserve(static_cast<size_t>(last - first));
  for (const Component* p = first + 1; p + 1 != last; ++p) out.Append(*p);
  out.AppendIntersection(*(last - 1), window);
  return out;
}

// --- difference -----------------------------------------------------------

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  if (IsEmpty() || other.IsEmpty()) return *this;
  return Subtract(other.comps_.begin(), other.comps_.end());
}

IntervalSet IntervalSet::Subtract(const Component* b_begin,
                                  const Component* b_end) const {
  // For each component `a`, binary-jump to the first subtrahend component
  // not strictly before it and chip the overlapping ones off a left to
  // right. Surviving pieces are separated by removed chunks or original
  // gaps, so they append in order.
  IntervalSet out;
  const Component* j = b_begin;
  for (const Component& a : comps_) {
    // Do not advance j past the overlap: a wide subtrahend component can
    // overlap several later components of *this.
    j = std::partition_point(j, b_end, [&](const Component& x) {
      return x.hull.StrictlyBefore(a.hull);
    });
    if (!a.is_run()) {
      // Keeps the part of a between the cursor and a removed chunk <lo, hi>
      // and moves the cursor past the chunk.
      Bound cursor = a.hull.lo();
      bool covered_to_end = false;
      auto cut = [&](const Bound& lo, const Bound& hi) {
        // A chunk reaching -inf leaves nothing of a to its left.
        if (!lo.infinite) {
          if (auto piece = Interval::Make(cursor, FlipOpenness(lo));
              piece.has_value()) {
            out.Append(*piece);
          }
        }
        if (hi.infinite) {
          covered_to_end = true;
        } else {
          cursor = FlipOpenness(hi);
        }
      };
      for (const Component* c = j;
           c != b_end && !covered_to_end && !a.hull.StrictlyBefore(c->hull);
           ++c) {
        if (!c->is_run()) {
          cut(c->hull.lo(), c->hull.hi());
          continue;
        }
        // A run punches point holes into a.
        auto [i0, i1] = CoveredRange(*c, a.hull);
        for (int64_t i = i0; i <= i1; ++i) {
          const Bound at = Bound::Closed(c->At(i));
          cut(at, at);
        }
      }
      if (!covered_to_end) {
        if (auto tail = Interval::Make(cursor, a.hull.hi());
            tail.has_value()) {
          out.Append(*tail);
        }
      }
      continue;
    }
    // A run keeps the points no subtrahend component holds: a dense or
    // same-grid component removes an index range, a run of another step
    // the points the two share.
    int64_t k = 0;
    for (const Component* c = j;
         c != b_end && k < a.count && !a.hull.StrictlyBefore(c->hull); ++c) {
      if (!c->is_run() || SameGrid(a, *c)) {
        auto [i0, i1] = CoveredRange(a, c->hull);
        if (i0 > i1 || i1 < k) continue;
        if (i0 > k) out.AppendPoints(a, k, i0);
        k = i1 + 1;
        continue;
      }
      if (a.step == c->step) continue;  // parallel grids never meet
      ForSharedPoints(a, *c, [&](int64_t i) {
        if (i < k) return;
        if (i > k) out.AppendPoints(a, k, i);
        k = i + 1;
      });
    }
    if (k < a.count) out.AppendPoints(a, k, a.count);
  }
  return out;
}

IntervalSet IntervalSet::Complement() const {
  IntervalSet out;
  if (IsEmpty()) {
    out.Append(Interval::All());
    return out;
  }
  Bound cursor = Bound::Infinite();
  bool open_left = true;  // cursor is -inf
  for (const Interval& piece : *this) {
    if (open_left) {
      if (!piece.lo().infinite) {
        out.Append(*Interval::Make(Bound::Infinite(),
                                   FlipOpenness(piece.lo())));
      }
      open_left = false;
    } else if (auto gap = Interval::Make(cursor, FlipOpenness(piece.lo()));
               gap.has_value()) {
      out.Append(*gap);
    }
    if (piece.hi().infinite) return out;
    cursor = FlipOpenness(piece.hi());
  }
  out.Append(*Interval::Make(cursor, Bound::Infinite()));
  return out;
}

IntervalSet IntervalSet::Shift(const Rational& delta) const {
  // Translation preserves every grouping decision of the normalizer, so the
  // shifted components are canonical as they are.
  IntervalSet out;
  out.comps_.reserve(comps_.size());
  for (const Component& c : comps_) {
    out.comps_.push_back({c.hull.Shift(delta), c.step, c.count});
  }
  out.pieces_ = pieces_;
  return out;
}

// --- MTL transforms -------------------------------------------------------

void IntervalSet::AppendDilatedRun(const Component& run, const Interval& rho,
                                   bool future) {
  auto dilate = [&](const Rational& t) {
    const Interval p = Interval::Point(t);
    return future ? p.DiamondPlus(rho) : p.DiamondMinus(rho);
  };
  if (rho.IsPunctual()) {
    const Rational& a = rho.lo().value;
    AppendRun(future ? run.first() - a : run.first() + a, run.step, run.count);
    return;
  }
  const Interval d0 = dilate(run.first());
  if (d0.Unionable(dilate(run.At(1)))) {
    Append(d0.Hull(dilate(run.last())));
    return;
  }
  for (int64_t k = 0; k < run.count; ++k) Append(dilate(run.At(k)));
}

IntervalSet IntervalSet::DiamondMinus(const Interval& rho) const {
  // Dilation preserves component order but may bridge gaps; the normalizer
  // coalesces.
  IntervalSet out;
  out.comps_.reserve(comps_.size());
  for (const Component& c : comps_) {
    if (c.is_run()) {
      out.AppendDilatedRun(c, rho, /*future=*/false);
    } else {
      out.Append(c.hull.DiamondMinus(rho));
    }
  }
  return out;
}

IntervalSet IntervalSet::DiamondPlus(const Interval& rho) const {
  IntervalSet out;
  out.comps_.reserve(comps_.size());
  for (const Component& c : comps_) {
    if (c.is_run()) {
      out.AppendDilatedRun(c, rho, /*future=*/true);
    } else {
      out.Append(c.hull.DiamondPlus(rho));
    }
  }
  return out;
}

IntervalSet IntervalSet::BoxMinus(const Interval& rho) const {
  // Erosion shrinks every piece in place. A point survives only a punctual
  // rho, which shifts it: a run erodes to its shift or to nothing.
  IntervalSet out;
  out.comps_.reserve(comps_.size());
  for (const Component& c : comps_) {
    if (c.is_run()) {
      if (rho.IsPunctual()) {
        out.AppendRun(c.first() + rho.lo().value, c.step, c.count);
      }
    } else if (auto x = c.hull.BoxMinus(rho); x.has_value()) {
      out.Append(*x);
    }
  }
  return out;
}

IntervalSet IntervalSet::BoxPlus(const Interval& rho) const {
  IntervalSet out;
  out.comps_.reserve(comps_.size());
  for (const Component& c : comps_) {
    if (c.is_run()) {
      if (rho.IsPunctual()) {
        out.AppendRun(c.first() - rho.lo().value, c.step, c.count);
      }
    } else if (auto x = c.hull.BoxPlus(rho); x.has_value()) {
      out.Append(*x);
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
  for (const Interval& i1 : *this) {
    // The witness s must satisfy s >= i1.lo (the open gap (s,t) tolerates
    // s on the boundary) and the result t <= i1.hi likewise.
    Bound win_lo = i1.lo().infinite ? Bound::Infinite()
                                    : Bound::Closed(i1.lo().value);
    auto window = Interval::Make(win_lo, Bound::Infinite());
    assert(window.has_value());
    for (const Interval& i2 : m2) {
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
  for (const Interval& i1 : *this) {
    Bound win_hi = i1.hi().infinite ? Bound::Infinite()
                                    : Bound::Closed(i1.hi().value);
    auto window = Interval::Make(Bound::Infinite(), win_hi);
    assert(window.has_value());
    for (const Interval& i2 : m2) {
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
  for (const Component& c : comps_) {
    if (!c.is_run() && !c.hull.IsPunctual()) return false;
  }
  if (points != nullptr) {
    points->clear();
    points->reserve(pieces_);
    for (const Interval& iv : *this) points->push_back(iv.lo().value);
  }
  return true;
}

std::string IntervalSet::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const Interval& iv : *this) {
    if (!first) out += ' ';
    first = false;
    out += iv.ToString();
  }
  out += '}';
  return out;
}

std::ostream& operator<<(std::ostream& os, const IntervalSet& set) {
  return os << set.ToString();
}

}  // namespace dmtl
