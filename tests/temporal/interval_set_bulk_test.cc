// Property/fuzz coverage for the batched IntervalSet kernels and the
// small-buffer storage: over randomized rational interval streams, the bulk
// construction and merge paths (FromIntervals, Add, UnionWith,
// UnionWithDelta) must produce exactly the coalesced set the per-interval
// Insert reference builds, and the deltas they report must equal the union
// of the per-interval Insert deltas. The one-sweep UnionWithDelta is also
// checked against the Subtract + UnionWith pair it replaced, exhaustively
// over a tiny grid (every touching boundary, every open/closed mix, both
// infinities) and by fuzzing each of its shapes, and the engine's disjoint
// delta append (Relation::InsertDisjoint) against UnionWith, index
// envelopes included. Sets with point runs (steps 1, 1/3 and 7, dense
// neighbours closed and open) go through every set kernel and are checked
// against the membership oracle, which shares none of them. The streams
// deliberately straddle the inline capacity of SmallVec (2 components) so
// both the inline representation and the heap spill are exercised,
// including copies, moves, and equality across representations.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/storage/database.h"
#include "src/temporal/interval_set.h"
#include "tests/testing/membership_oracle.h"

namespace dmtl {
namespace {

// A randomized interval over a small rational grid: finite open/closed
// endpoints (halves included so openness matters), occasionally infinite.
class IntervalFuzzer {
 public:
  explicit IntervalFuzzer(uint64_t seed) : rng_(seed) {}

  Interval Next() {
    if (Pick(20) == 0) {
      // Unbounded on one side.
      Rational t = Point();
      return Pick(2) == 0 ? Interval::AtLeast(t) : Interval::AtMost(t);
    }
    Rational lo = Point();
    Rational hi = lo + Rational(Pick(7), 2);
    Bound blo = Pick(2) == 0 ? Bound::Closed(lo) : Bound::Open(lo);
    Bound bhi = Pick(2) == 0 ? Bound::Closed(hi) : Bound::Open(hi);
    auto made = Interval::Make(blo, bhi);
    // Empty combination (e.g. [t,t) ): fall back to the point.
    return made.value_or(Interval::Point(lo));
  }

  std::vector<Interval> Stream(size_t n) {
    std::vector<Interval> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(Next());
    return out;
  }

  size_t PickSize(size_t max) { return Pick(static_cast<int>(max) + 1); }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % n); }
  Rational Point() { return Rational(Pick(41) - 20, 2); }

  std::mt19937_64 rng_;
};

// The reference semantics every batched path must match.
IntervalSet InsertReference(const std::vector<Interval>& stream) {
  IntervalSet out;
  for (const Interval& iv : stream) out.Insert(iv);
  return out;
}

class BulkKernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BulkKernelFuzzTest, FromIntervalsMatchesInsertReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::vector<Interval> stream = fuzz.Stream(fuzz.PickSize(12));
    IntervalSet reference = InsertReference(stream);
    IntervalSet bulk = IntervalSet::FromIntervals(stream);
    EXPECT_EQ(bulk, reference)
        << "bulk=" << bulk.ToString() << " ref=" << reference.ToString();
    EXPECT_EQ(bulk.ToString(), reference.ToString());
  }
}

TEST_P(BulkKernelFuzzTest, FromIntervalsOfOrderedStreamsMatchesReference) {
  // Chain walks pass their batches in walk order, ascending or descending;
  // those skip the sort. Either order must still coalesce touching and
  // overlapping neighbours like Insert does.
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::vector<Interval> stream = fuzz.Stream(1 + fuzz.PickSize(24));
    std::sort(stream.begin(), stream.end(),
              [](const Interval& a, const Interval& b) {
                return a.StartsBefore(b);
              });
    IntervalSet reference = InsertReference(stream);
    EXPECT_EQ(IntervalSet::FromIntervals(stream).ToString(),
              reference.ToString());
    std::reverse(stream.begin(), stream.end());
    EXPECT_EQ(IntervalSet::FromIntervals(stream).ToString(),
              reference.ToString());
  }
}

TEST_P(BulkKernelFuzzTest, AddMatchesInsertReference) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    std::vector<Interval> stream = fuzz.Stream(fuzz.PickSize(12));
    IntervalSet reference;
    IntervalSet incremental;
    for (const Interval& iv : stream) {
      reference.Insert(iv);
      incremental.Add(iv);
      EXPECT_EQ(incremental, reference);
    }
  }
}

TEST_P(BulkKernelFuzzTest, UnionWithMatchesPerIntervalInserts) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));

    IntervalSet reference = a;
    for (const Interval& iv : b) reference.Insert(iv);

    IntervalSet bulk = a;
    bulk.UnionWith(b);
    EXPECT_EQ(bulk, reference)
        << "a=" << a.ToString() << " b=" << b.ToString();
  }
}

// The delta of a bulk merge must be exactly the union of the per-interval
// Insert deltas: the newly covered portion, nothing of what was already
// covered.
TEST_P(BulkKernelFuzzTest, UnionWithDeltaEqualsInsertDeltas) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));

    IntervalSet reference = a;
    IntervalSet reference_delta;
    for (const Interval& iv : b) {
      reference_delta.UnionWith(reference.Insert(iv));
    }

    IntervalSet bulk = a;
    IntervalSet bulk_delta = bulk.UnionWithDelta(b);
    EXPECT_EQ(bulk, reference);
    EXPECT_EQ(bulk_delta, reference_delta)
        << "a=" << a.ToString() << " b=" << b.ToString()
        << " bulk_delta=" << bulk_delta.ToString()
        << " ref_delta=" << reference_delta.ToString();
    // The delta is exactly what `a` was missing.
    EXPECT_EQ(bulk_delta, b.Subtract(a));
  }
}

TEST_P(BulkKernelFuzzTest, IntersectIntervalMatchesSetIntersect) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 40; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    Interval clip = fuzz.Next();
    EXPECT_EQ(a.Intersect(clip), a.Intersect(IntervalSet(clip)))
        << "a=" << a.ToString() << " clip=" << clip.ToString();
  }
}

// The reference UnionWithDelta: what *this lacks of `other`, then the
// plain union.
IntervalSet SubtractUnionReference(IntervalSet* a, const IntervalSet& b) {
  IntervalSet fresh = b.Subtract(*a);
  a->UnionWith(b);
  return fresh;
}

void ExpectUnionWithDeltaMatchesReference(const IntervalSet& a,
                                          const IntervalSet& b) {
  IntervalSet reference = a;
  IntervalSet reference_fresh = SubtractUnionReference(&reference, b);
  IntervalSet swept = a;
  IntervalSet swept_fresh = swept.UnionWithDelta(b);
  EXPECT_EQ(swept, reference) << "a=" << a << " b=" << b;
  EXPECT_EQ(swept_fresh, reference_fresh)
      << "a=" << a << " b=" << b << " swept_fresh=" << swept_fresh
      << " reference_fresh=" << reference_fresh;
}

// Every non-empty interval whose finite endpoints are 0, 1, 2 or 3, open or
// closed, plus the infinite ends.
std::vector<Interval> TinyGridIntervals() {
  std::vector<Bound> bounds = {Bound::Infinite()};
  for (int v = 0; v <= 3; ++v) {
    bounds.push_back(Bound::Closed(Rational(v)));
    bounds.push_back(Bound::Open(Rational(v)));
  }
  std::vector<Interval> out;
  for (const Bound& lo : bounds) {
    for (const Bound& hi : bounds) {
      if (auto iv = Interval::Make(lo, hi); iv.has_value()) {
        out.push_back(*iv);
      }
    }
  }
  return out;
}

TEST(UnionWithDeltaSweepTest, ExhaustiveTinyGridMatchesSubtractUnion) {
  // Every normalized set of up to two components on the grid, against
  // every other: the grid is coarse enough that nearly every pair touches
  // somewhere, so each boundary sliver ([1,1] between [0,1) and (1,2]) and
  // each one-sided infinity is exercised by the single-component, suffix
  // and sweep paths alike.
  const std::vector<Interval> ivs = TinyGridIntervals();
  std::vector<IntervalSet> sets = {IntervalSet()};
  for (const Interval& x : ivs) {
    sets.push_back(IntervalSet(x));
    for (const Interval& y : ivs) {
      if (x.StrictlyBefore(y)) sets.push_back(IntervalSet::FromIntervals({x, y}));
    }
  }
  ASSERT_EQ(sets.size(), 256u);
  for (const IntervalSet& a : sets) {
    for (const IntervalSet& b : sets) ExpectUnionWithDeltaMatchesReference(a, b);
  }
}

TEST_P(BulkKernelFuzzTest, UnionWithDeltaSweepMatchesSubtractUnion) {
  IntervalFuzzer fuzz(GetParam());
  for (int round = 0; round < 60; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    IntervalSet b = InsertReference(fuzz.Stream(fuzz.PickSize(10)));
    // General shapes, empty operands, single components.
    ExpectUnionWithDeltaMatchesReference(a, b);
    ExpectUnionWithDeltaMatchesReference(a, IntervalSet());
    ExpectUnionWithDeltaMatchesReference(IntervalSet(), b);
    ExpectUnionWithDeltaMatchesReference(a, IntervalSet(fuzz.Next()));
    if (a.IsEmpty() || b.IsEmpty()) continue;
    // Suffix shapes: b moved to start exactly where a ends, and just past
    // it, so openness decides between coalescing, a point sliver and a
    // true gap.
    const Bound end = a.Hull().hi();
    const Bound start = b.Hull().lo();
    if (end.infinite || start.infinite) continue;
    for (const Rational& gap : {Rational(0), Rational(1, 2)}) {
      ExpectUnionWithDeltaMatchesReference(
          a, b.Shift(end.value - start.value + gap));
    }
    // Frontier overlap: b's first component reaches back into a's last.
    ExpectUnionWithDeltaMatchesReference(
        a, b.Shift(end.value - start.value - Rational(1, 2)));
  }
}

// Sets that touch `a` at its component boundaries from either side: the
// fresh pieces of such a merge are the slivers an off-by-one-openness sweep
// would drop or duplicate.
TEST_P(BulkKernelFuzzTest, UnionWithDeltaBoundarySliversMatchReference) {
  std::mt19937_64 rng(GetParam());
  IntervalFuzzer fuzz(GetParam() + 100);
  for (int round = 0; round < 60; ++round) {
    IntervalSet a = InsertReference(fuzz.Stream(1 + fuzz.PickSize(6)));
    std::vector<Interval> pieces;
    for (const Interval& x : a) {
      for (const Bound& edge : {x.lo(), x.hi()}) {
        if (edge.infinite) continue;
        const Rational w(static_cast<int64_t>(rng() % 3), 2);
        const bool lo_open = rng() % 2 == 0;
        const bool hi_open = rng() % 2 == 0;
        auto make = [&](Rational lo, Rational hi) {
          return Interval::Make(
              lo_open ? Bound::Open(lo) : Bound::Closed(lo),
              hi_open ? Bound::Open(hi) : Bound::Closed(hi));
        };
        // Ending at the edge, starting at it, or the edge point alone.
        for (auto iv : {make(edge.value - w, edge.value),
                        make(edge.value, edge.value + w),
                        Interval::Make(Bound::Closed(edge.value),
                                       Bound::Closed(edge.value))}) {
          if (iv.has_value() && rng() % 3 != 0) pieces.push_back(*iv);
        }
      }
    }
    ExpectUnionWithDeltaMatchesReference(a, IntervalSet::FromIntervals(pieces));
  }
}

// Relation::InsertDisjoint (the round-delta append) must leave a relation
// exactly as InsertSet does whenever the set is disjoint from the stored
// extent: the same extent as UnionWith, the same counters, and the same
// index entry hulls and envelopes, for existing and new tuples alike.
TEST_P(BulkKernelFuzzTest, DisjointAppendMatchesUnionWith) {
  IntervalFuzzer fuzz(GetParam());
  const Tuple key = {Value::Int(7), Value::Int(1)};
  const Tuple fresh_key = {Value::Int(7), Value::Int(2)};
  for (int round = 0; round < 40; ++round) {
    IntervalSet stored = InsertReference(fuzz.Stream(1 + fuzz.PickSize(8)));
    IntervalSet add = InsertReference(fuzz.Stream(1 + fuzz.PickSize(8)))
                          .Subtract(stored);
    if (add.IsEmpty()) continue;

    Relation appended;
    appended.InsertSet(key, stored);
    appended.GetIndex(0b01);  // built before the append, so it must widen
    Relation reference = appended;
    reference.GetIndex(0b01);

    appended.InsertDisjoint(key, add);
    appended.InsertDisjoint(fresh_key, add);
    EXPECT_EQ(reference.InsertSet(key, add), add);
    EXPECT_EQ(reference.InsertSet(fresh_key, add), add);

    IntervalSet expected = stored;
    expected.UnionWith(add);
    ASSERT_NE(appended.Find(key), nullptr);
    EXPECT_EQ(*appended.Find(key), expected)
        << "stored=" << stored << " add=" << add;
    ASSERT_NE(appended.Find(fresh_key), nullptr);
    EXPECT_EQ(*appended.Find(fresh_key), add);
    EXPECT_EQ(appended.NumIntervals(), reference.NumIntervals());
    EXPECT_EQ(appended.approx_intervals(), reference.approx_intervals());
    EXPECT_EQ(appended.Rows().size(), 2u);
    ASSERT_NE(appended.FindByFirstArg(Value::Int(7)), nullptr);
    EXPECT_EQ(appended.FindByFirstArg(Value::Int(7))->size(), 2u);

    const Relation::PostingList* got =
        appended.GetIndex(0b01)->Lookup({Value::Int(7)});
    const Relation::PostingList* want =
        reference.GetIndex(0b01)->Lookup({Value::Int(7)});
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    ASSERT_EQ(got->entries.size(), 2u);
    ASSERT_EQ(want->entries.size(), 2u);
    EXPECT_EQ(*got->envelope, *want->envelope);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(*got->entries[i].tuple, *want->entries[i].tuple);
      EXPECT_EQ(got->entries[i].hull, want->entries[i].hull)
          << "stored=" << stored << " add=" << add;
    }
  }
}

TEST(DisjointAppendTest, DatabaseCountsTheAppend) {
  Database db;
  const PredicateId p = InternPredicate("disjoint_append_p");
  db.InsertSet(p, {Value::Int(1)},
               IntervalSet::FromIntervals({Interval::ClosedOpen(Rational(0), Rational(2))}));
  const size_t before = db.approx_intervals();
  // Touches the stored [0,2) at 2: coalesces, yet all of it is new.
  db.InsertDisjoint(p, {Value::Int(1)},
                    IntervalSet::FromIntervals({Interval::Closed(Rational(2), Rational(3)),
                                                Interval::Point(Rational(5))}));
  EXPECT_EQ(db.approx_intervals(), before + 2);
  EXPECT_EQ(db.Find(p)->Find({Value::Int(1)})->ToString(), "{[0,3] [5,5]}");
  EXPECT_EQ(db.NumIntervals(), 2u);
}

// Point runs through every set kernel, against the membership oracle; and
// equal sets compare equal however they were built (the grouping into runs
// is canonical).
TEST_P(BulkKernelFuzzTest, RunInputsMatchMembershipOracle) {
  RunSetFuzzer fuzz(GetParam());
  for (int i = 0; i < 40; ++i) {
    const ExplicitSet ea = fuzz.Next();
    const ExplicitSet eb = fuzz.Next();
    const IntervalSet a = ToIntervalSet(ea);
    const IntervalSet b = ToIntervalSet(eb);
    std::vector<Rational> crit = membership::Criticals(ea);
    for (const Rational& c : membership::Criticals(eb)) crit.push_back(c);
    auto in_a = [&](const Rational& t) { return membership::Member(ea, t); };
    auto in_b = [&](const Rational& t) { return membership::Member(eb, t); };
    auto check = [&](const IntervalSet& got, const char* what,
                     const std::function<bool(const Rational&)>& expected) {
      EXPECT_EQ(membership::Disagreement(got, crit, expected), "")
          << what << ": a=" << ea.ToString() << " b=" << eb.ToString();
    };
    check(a, "build a", in_a);
    check(b, "build b", in_b);

    IntervalSet merged = a;
    merged.UnionWith(b);
    check(merged, "UnionWith",
          [&](const Rational& t) { return in_a(t) || in_b(t); });
    IntervalSet swept = a;
    IntervalSet fresh = swept.UnionWithDelta(b);
    check(fresh, "UnionWithDelta delta",
          [&](const Rational& t) { return in_b(t) && !in_a(t); });
    IntervalSet inserted = a;
    IntervalSet insert_deltas;
    for (const Interval& iv : b) insert_deltas.UnionWith(inserted.Insert(iv));
    check(insert_deltas, "Insert deltas",
          [&](const Rational& t) { return in_b(t) && !in_a(t); });
    IntervalSet reversed = b;
    reversed.UnionWith(a);
    EXPECT_EQ(swept, merged) << ea.ToString() << " | " << eb.ToString();
    EXPECT_EQ(inserted, merged) << ea.ToString() << " | " << eb.ToString();
    EXPECT_EQ(reversed, merged) << ea.ToString() << " | " << eb.ToString();
    EXPECT_EQ(IntervalSet::FromIntervals(merged.intervals()), merged);
    EXPECT_EQ(merged.size(), merged.intervals().size());

    check(a.Intersect(b), "Intersect",
          [&](const Rational& t) { return in_a(t) && in_b(t); });
    check(a.Subtract(b), "Subtract",
          [&](const Rational& t) { return in_a(t) && !in_b(t); });
    check(a.Complement(), "Complement",
          [&](const Rational& t) { return !in_a(t); });
    const Interval window = eb.dense.empty()
                                ? Interval::Closed(eb.runs[0].lo,
                                                   eb.runs[0].lo + Rational(3))
                                : eb.dense[0];
    check(a.Intersect(window), "Intersect(Interval)", [&](const Rational& t) {
      return in_a(t) &&
             membership::InBounds(window.lo(), window.hi(), t);
    });
    bool b_in_a = true;
    for (const Rational& t : membership::Samples(crit)) {
      EXPECT_EQ(a.Contains(t), in_a(t))
          << "Contains " << t.ToString() << ": a=" << ea.ToString();
      if (in_b(t) && !in_a(t)) b_in_a = false;
    }
    EXPECT_EQ(a.ContainsSet(b), b_in_a)
        << "ContainsSet: a=" << ea.ToString() << " b=" << eb.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BulkKernelFuzzTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- Small-buffer representation ------------------------------------------
// Sets of up to two intervals live inline; the third insertion spills to the
// heap. Behavior must be identical on both sides of the boundary and across
// copies/moves that change representation.

TEST(SmallBufferTest, InlineToHeapSpillPreservesContents) {
  IntervalSet set;
  std::vector<Interval> pieces;
  for (int i = 0; i < 8; ++i) {
    Interval iv = Interval::Closed(Rational(3 * i), Rational(3 * i + 1));
    pieces.push_back(iv);
    set.Add(iv);
    ASSERT_EQ(set.size(), static_cast<size_t>(i + 1));
    for (size_t j = 0; j < pieces.size(); ++j) {
      EXPECT_EQ(set.intervals()[j], pieces[j]) << "after insert " << i;
    }
  }
}

TEST(SmallBufferTest, CopyAndMoveAcrossRepresentations) {
  IntervalSet inline_set;
  inline_set.Add(Interval::Closed(Rational(0), Rational(1)));
  inline_set.Add(Interval::Closed(Rational(5), Rational(6)));

  IntervalSet heap_set;
  for (int i = 0; i < 6; ++i) {
    heap_set.Add(Interval::Point(Rational(2 * i)));
  }

  // Copies compare equal whatever the source representation.
  IntervalSet inline_copy = inline_set;
  IntervalSet heap_copy = heap_set;
  EXPECT_EQ(inline_copy, inline_set);
  EXPECT_EQ(heap_copy, heap_set);

  // Cross-representation assignment in both directions.
  IntervalSet target = heap_set;
  target = inline_set;
  EXPECT_EQ(target, inline_set);
  target = heap_copy;
  EXPECT_EQ(target, heap_set);

  // Moved-from heap storage is stolen, not copied: the moved-to set holds
  // the full contents.
  IntervalSet moved = std::move(heap_copy);
  EXPECT_EQ(moved, heap_set);

  // Mutating the copy leaves the original alone (no shared storage).
  inline_copy.Add(Interval::Point(Rational(100)));
  EXPECT_NE(inline_copy, inline_set);
  EXPECT_EQ(inline_set.size(), 2u);
}

TEST(SmallBufferTest, InsertDeltaIdenticalAcrossSpillBoundary) {
  // Insert a covering interval into a set sitting exactly at the inline
  // capacity and just past it; the reported uncovered delta must agree
  // with Subtract in both representations.
  for (int preload : {1, 2, 3, 5}) {
    IntervalSet set;
    for (int i = 0; i < preload; ++i) {
      set.Add(Interval::Closed(Rational(4 * i), Rational(4 * i + 1)));
    }
    Interval wide = Interval::Closed(Rational(-1), Rational(30));
    IntervalSet before = set;
    IntervalSet delta = set.Insert(wide);
    EXPECT_EQ(delta, IntervalSet(wide).Subtract(before))
        << "preload=" << preload;
    EXPECT_EQ(set.size(), 1u);
  }
}

}  // namespace
}  // namespace dmtl
