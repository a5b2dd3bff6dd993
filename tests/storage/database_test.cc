#include "src/storage/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

namespace dmtl {
namespace {

TEST(RelationTest, InsertReturnsDelta) {
  Relation rel;
  Tuple t = {Value::Symbol("a")};
  IntervalSet d1 = rel.Insert(t, Interval::Closed(Rational(0), Rational(5)));
  EXPECT_FALSE(d1.IsEmpty());
  IntervalSet d2 = rel.Insert(t, Interval::Closed(Rational(2), Rational(3)));
  EXPECT_TRUE(d2.IsEmpty());
  EXPECT_EQ(rel.NumTuples(), 1u);
  EXPECT_EQ(rel.NumIntervals(), 1u);
  EXPECT_TRUE(rel.Contains(t, Rational(4)));
  EXPECT_FALSE(rel.Contains(t, Rational(6)));
}

TEST(RelationTest, ApproxIntervalsGrowsMonotonically) {
  Relation rel;
  Tuple t = {Value::Int(1)};
  rel.Insert(t, Interval::Point(Rational(1)));
  rel.Insert(t, Interval::Point(Rational(3)));
  size_t approx = rel.approx_intervals();
  EXPECT_GE(approx, 2u);
  // Bridging insert coalesces storage but the approx counter never shrinks.
  rel.Insert(t, Interval::Closed(Rational(1), Rational(3)));
  EXPECT_EQ(rel.NumIntervals(), 1u);
  EXPECT_GE(rel.approx_intervals(), approx);
}

TEST(RelationTest, FirstArgIndexFindsKeyedTuples) {
  Relation rel;
  Value acc = Value::Symbol("acc");
  Value bob = Value::Symbol("bob");
  rel.Insert({acc, Value::Double(10.0)}, Interval::Point(Rational(1)));
  rel.Insert({acc, Value::Double(20.0)}, Interval::Point(Rational(2)));
  rel.Insert({bob, Value::Double(30.0)}, Interval::Point(Rational(3)));
  const auto* acc_tuples = rel.FindByFirstArg(acc);
  ASSERT_NE(acc_tuples, nullptr);
  EXPECT_EQ(acc_tuples->size(), 2u);
  const auto* bob_tuples = rel.FindByFirstArg(bob);
  ASSERT_NE(bob_tuples, nullptr);
  EXPECT_EQ(bob_tuples->size(), 1u);
  EXPECT_EQ(rel.FindByFirstArg(Value::Symbol("nobody")), nullptr);
  // New intervals on an existing tuple do not duplicate index entries.
  rel.Insert({acc, Value::Double(10.0)}, Interval::Point(Rational(9)));
  EXPECT_EQ(rel.FindByFirstArg(acc)->size(), 2u);
  // InsertSet also keeps the index in sync.
  rel.InsertSet({acc, Value::Double(40.0)},
                IntervalSet(Interval::Point(Rational(5))));
  EXPECT_EQ(rel.FindByFirstArg(acc)->size(), 3u);
}

TEST(RelationTest, FirstArgIndexSurvivesCopyAndMove) {
  Relation rel;
  Value acc = Value::Symbol("acc");
  rel.Insert({acc, Value::Int(1)}, Interval::Point(Rational(1)));
  Relation copy = rel;
  rel.Clear();  // the copy's index must not point into the original
  const auto* tuples = copy.FindByFirstArg(acc);
  ASSERT_NE(tuples, nullptr);
  ASSERT_EQ(tuples->size(), 1u);
  EXPECT_EQ((*tuples->front())[1], Value::Int(1));
  Relation moved = std::move(copy);
  const auto* moved_tuples = moved.FindByFirstArg(acc);
  ASSERT_NE(moved_tuples, nullptr);
  EXPECT_EQ(moved_tuples->size(), 1u);
  // Copy-assignment over an existing relation rebuilds too.
  Relation target;
  target.Insert({Value::Symbol("x")}, Interval::Point(Rational(0)));
  target = moved;
  ASSERT_NE(target.FindByFirstArg(acc), nullptr);
  EXPECT_EQ(target.FindByFirstArg(Value::Symbol("x")), nullptr);
}

TEST(DatabaseTest, InsertAndFind) {
  Database db;
  db.Insert("price", {Value::Double(47.0)},
            Interval::ClosedOpen(Rational(10), Rational(20)));
  EXPECT_TRUE(db.Holds("price", {Value::Double(47.0)}, Rational(15)));
  EXPECT_FALSE(db.Holds("price", {Value::Double(47.0)}, Rational(20)));
  EXPECT_FALSE(db.Holds("nope", {}, Rational(0)));
  EXPECT_NE(db.Find("price"), nullptr);
  EXPECT_EQ(db.Find("nope"), nullptr);
}

TEST(DatabaseTest, FactsOfEnumeratesPerInterval) {
  Database db;
  db.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  db.Insert("p", {Value::Int(1)}, Interval::Point(Rational(5)));
  db.Insert("p", {Value::Int(2)}, Interval::Point(Rational(1)));
  auto facts = db.FactsOf("p");
  EXPECT_EQ(facts.size(), 3u);
}

TEST(DatabaseTest, MergeFrom) {
  Database a;
  a.Insert("p", {Value::Int(1)}, Interval::Closed(Rational(0), Rational(2)));
  Database b;
  b.Insert("p", {Value::Int(1)}, Interval::Closed(Rational(2), Rational(5)));
  b.Insert("q", {}, Interval::Point(Rational(9)));
  a.MergeFrom(b);
  EXPECT_TRUE(a.Holds("p", {Value::Int(1)}, Rational(4)));
  EXPECT_TRUE(a.Holds("q", {}, Rational(9)));
  // Coalesced into one stored interval.
  EXPECT_EQ(a.Find("p")->NumIntervals(), 1u);
}

TEST(DatabaseTest, CountsAndToString) {
  Database db;
  db.Insert("p", {Value::Int(1)}, Interval::Point(Rational(1)));
  db.Insert("q", {Value::Symbol("a"), Value::Int(2)},
            Interval::Closed(Rational(0), Rational(1)));
  EXPECT_EQ(db.NumPredicates(), 2u);
  EXPECT_EQ(db.NumTuples(), 2u);
  EXPECT_EQ(db.NumIntervals(), 2u);
  // Deterministic, sorted rendering.
  EXPECT_EQ(db.ToString(), "p(1)@{[1,1]}\nq(a, 2)@{[0,1]}\n");
}

TEST(RelationIndexTest, GetIndexBuildsLooksUpAndTracksEnvelope) {
  Relation rel;
  rel.Insert({Value::Symbol("a"), Value::Int(1)},
             Interval::Closed(Rational(0), Rational(5)));
  rel.Insert({Value::Symbol("a"), Value::Int(2)},
             Interval::Closed(Rational(10), Rational(20)));
  rel.Insert({Value::Symbol("b"), Value::Int(3)},
             Interval::Point(Rational(7)));

  bool built_now = false;
  const Relation::BoundIndex* index = rel.GetIndex(0b01, &built_now);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(built_now);
  EXPECT_EQ(rel.num_indexes(), 1u);
  ASSERT_EQ(index->positions, std::vector<size_t>{0});

  const Relation::PostingList* list =
      index->Lookup(Tuple{Value::Symbol("a")});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->entries.size(), 2u);
  // Envelope = hull over both a-tuples' extents.
  ASSERT_TRUE(list->envelope.has_value());
  EXPECT_TRUE(list->envelope->Contains(Rational(0)));
  EXPECT_TRUE(list->envelope->Contains(Rational(20)));
  EXPECT_FALSE(list->envelope->Contains(Rational(21)));
  EXPECT_EQ(index->Lookup(Tuple{Value::Symbol("z")}), nullptr);

  // Second request reuses the built index.
  rel.GetIndex(0b01, &built_now);
  EXPECT_FALSE(built_now);
  EXPECT_EQ(rel.num_indexes(), 1u);

  // Signature 0 means "nothing bound": no index, callers scan.
  EXPECT_EQ(rel.GetIndex(0), nullptr);
}

TEST(RelationIndexTest, InsertMaintainsExistingIndexes) {
  Relation rel;
  rel.Insert({Value::Symbol("a"), Value::Int(1)},
             Interval::Closed(Rational(0), Rational(2)));
  const Relation::BoundIndex* index = rel.GetIndex(0b10);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Lookup(Tuple{Value::Int(9)}), nullptr);

  // New tuple: appended to its posting list. New interval on an existing
  // tuple: envelope widens without duplicating the entry.
  rel.Insert({Value::Symbol("b"), Value::Int(9)},
             Interval::Closed(Rational(5), Rational(6)));
  const Relation::PostingList* list = index->Lookup(Tuple{Value::Int(9)});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->entries.size(), 1u);
  rel.Insert({Value::Symbol("b"), Value::Int(9)},
             Interval::Closed(Rational(50), Rational(60)));
  EXPECT_EQ(list->entries.size(), 1u);
  ASSERT_TRUE(list->envelope.has_value());
  EXPECT_TRUE(list->envelope->Contains(Rational(60)));
  // The entry's extent pointer is the live stored set.
  EXPECT_TRUE(list->entries[0].extent->Contains(Rational(55)));
}

TEST(RelationIndexTest, ShortTuplesAreOmittedFromHighPositionIndexes) {
  Relation rel;
  rel.Insert({Value::Symbol("a")}, Interval::Point(Rational(1)));
  rel.Insert({Value::Symbol("a"), Value::Int(7)}, Interval::Point(Rational(2)));
  // Index on position 1: the unary tuple can never unify with a two-term
  // atom, so only the binary tuple is indexed.
  const Relation::BoundIndex* index = rel.GetIndex(0b10);
  ASSERT_NE(index, nullptr);
  const Relation::PostingList* list = index->Lookup(Tuple{Value::Int(7)});
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->entries.size(), 1u);
}

TEST(RelationIndexTest, CopyDropsIndexesMoveKeepsThem) {
  Relation rel;
  rel.Insert({Value::Symbol("a"), Value::Int(1)},
             Interval::Point(Rational(1)));
  rel.GetIndex(0b01);
  ASSERT_EQ(rel.num_indexes(), 1u);

  // Copies must not inherit indexes: entries point into the source's data_.
  Relation copy = rel;
  EXPECT_EQ(copy.num_indexes(), 0u);
  bool built_now = false;
  copy.GetIndex(0b01, &built_now);
  EXPECT_TRUE(built_now);

  Relation assigned;
  assigned = rel;
  EXPECT_EQ(assigned.num_indexes(), 0u);

  // Moves keep them: unordered_map nodes are address-stable across moves.
  Relation moved = std::move(rel);
  EXPECT_EQ(moved.num_indexes(), 1u);
  built_now = true;
  const Relation::BoundIndex* index = moved.GetIndex(0b01, &built_now);
  EXPECT_FALSE(built_now);
  ASSERT_NE(index, nullptr);
  EXPECT_NE(index->Lookup(Tuple{Value::Symbol("a")}), nullptr);
}

TEST(RelationIndexTest, ClearDropsIndexes) {
  Relation rel;
  rel.Insert({Value::Int(1)}, Interval::Point(Rational(1)));
  rel.GetIndex(0b01);
  ASSERT_EQ(rel.num_indexes(), 1u);
  rel.Clear();
  EXPECT_EQ(rel.num_indexes(), 0u);
  EXPECT_TRUE(rel.IsEmpty());
}

TEST(DatabaseTest, FactMake) {
  Fact f = Fact::Make("tranM", {Value::Symbol("acc"), Value::Double(3.0)},
                      Interval::Point(Rational(7)));
  EXPECT_EQ(f.ToString(), "tranM(acc, 3)@[7,7]");
  Database db;
  db.Insert(f);
  EXPECT_TRUE(db.Holds("tranM", f.args, Rational(7)));
}

// --- time-ordered index (Relation::RowsMeeting) ---------------------------

// A random bound in [-5, 105] on a half-unit grid, open or closed, or (one
// time in eight) infinite.
Bound RandomBound(std::mt19937_64& rng) {
  if (rng() % 8 == 0) return Bound::Infinite();
  Rational v(static_cast<int64_t>(rng() % 221) - 10, 2);
  return rng() % 2 == 0 ? Bound::Closed(v) : Bound::Open(v);
}

Interval RandomInterval(std::mt19937_64& rng) {
  while (true) {
    std::optional<Interval> iv =
        Interval::Make(RandomBound(rng), RandomBound(rng));
    if (iv.has_value()) return *iv;
  }
}

// A finite interval: stored extents in the contract are bounded, and
// unbounded ones would overlap nearly every window.
Interval RandomFiniteInterval(std::mt19937_64& rng) {
  int64_t lo = static_cast<int64_t>(rng() % 200);
  int64_t len = static_cast<int64_t>(rng() % 12);
  return Interval::ClosedOpen(Rational(lo, 2), Rational(lo + len + 1, 2));
}

// The brute-force answer: rows of `arity` whose extent hull overlaps
// `window`, in Rows() order.
std::vector<uint32_t> BruteForceMeeting(const Relation& rel,
                                        const Interval& window,
                                        size_t arity) {
  std::vector<uint32_t> out;
  const std::vector<Relation::ScanEntry>& rows = rel.Rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].tuple->size() == arity &&
        rows[r].extent->Hull().Overlaps(window)) {
      out.push_back(static_cast<uint32_t>(r));
    }
  }
  return out;
}

// Checks one lookup against the brute-force scan: the rows come in Rows()
// order, hold every meeting row, and the count covers exactly the rows of
// `arity` left out. With `exact`, nothing else of that arity comes back.
void ExpectMeets(const Relation& rel, const Interval& window, size_t arity,
                 bool exact = false) {
  std::vector<uint32_t> rows;
  const size_t skipped = rel.RowsMeeting(window, arity, &rows);
  SCOPED_TRACE("window " + window.ToString());
  ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  ASSERT_TRUE(std::adjacent_find(rows.begin(), rows.end()) == rows.end());
  ASSERT_TRUE(rows.empty() || rows.back() < rel.Rows().size());
  const std::vector<uint32_t> expected = BruteForceMeeting(rel, window, arity);
  EXPECT_TRUE(std::includes(rows.begin(), rows.end(), expected.begin(),
                            expected.end()));
  size_t of_arity = 0, returned_of_arity = 0;
  for (const Relation::ScanEntry& row : rel.Rows()) {
    if (row.tuple->size() == arity) ++of_arity;
  }
  std::vector<uint32_t> returned;
  for (uint32_t r : rows) {
    if (rel.Rows()[r].tuple->size() != arity) continue;
    ++returned_of_arity;
    returned.push_back(r);
  }
  EXPECT_EQ(skipped, of_arity - returned_of_arity);
  if (exact) {
    EXPECT_EQ(returned, expected);
  }
}

void ExpectMeetsRandomWindows(const Relation& rel, std::mt19937_64& rng,
                              int windows, bool exact = false) {
  for (int i = 0; i < windows; ++i) {
    ExpectMeets(rel, RandomInterval(rng), 1, exact);
  }
}

Tuple Key(int i) { return Tuple{Value::Int(i)}; }

// Fills `rel` with `n` unary tuples of one or two random finite pieces.
void FillRandom(Relation* rel, std::mt19937_64& rng, int first, int n) {
  for (int i = first; i < first + n; ++i) {
    rel->Insert(Key(i), RandomFiniteInterval(rng));
    if (rng() % 2 == 0) rel->Insert(Key(i), RandomFiniteInterval(rng));
  }
}

// Each property test runs once per seed.
constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

TEST(RelationTimeIndexTest, FreshIndexMatchesBruteForceExactly) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 300);
    ExpectMeetsRandomWindows(rel, rng, 200, /*exact=*/true);
    EXPECT_EQ(rel.time_index_builds(), 1u);
    // Windows with an infinite side, and points on open and closed ends.
    ExpectMeets(rel, Interval::All(), 1, true);
    ExpectMeets(rel, Interval::AtMost(Rational(10)), 1, true);
    ExpectMeets(rel, Interval::AtLeast(Rational(90)), 1, true);
    ExpectMeets(rel, Interval::Point(Rational(50)), 1, true);
    ExpectMeets(rel, Interval::Open(Rational(20), Rational(41, 2)), 1, true);
  }
}

TEST(RelationTimeIndexTest, RowsAddedAfterTheBuildAreReturned) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 200);
    ExpectMeetsRandomWindows(rel, rng, 20, true);
    const size_t builds = rel.time_index_builds();
    // Few enough new rows to stay in the unsorted tail.
    FillRandom(&rel, rng, 1000, 20);
    ExpectMeetsRandomWindows(rel, rng, 100);
    EXPECT_EQ(rel.time_index_builds(), builds);
    // Enough to outgrow the tail: the next lookup rebuilds, exactly.
    FillRandom(&rel, rng, 2000, 200);
    ExpectMeetsRandomWindows(rel, rng, 100, true);
    EXPECT_EQ(rel.time_index_builds(), builds + 1);
  }
}

TEST(RelationTimeIndexTest, WidenedTuplesAreReturned) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 200);
    ExpectMeetsRandomWindows(rel, rng, 20, true);
    // Widen some tuples to the left, some to the right, through each insert
    // form; every widened hull reaches past the fill range.
    for (int i = 0; i < 200; i += 7) {
      const Rational far(-100 - i);
      const Rational late(300 + i);
      switch (i % 3) {
        case 0:
          rel.Insert(Key(i), Interval::Point(i % 2 == 0 ? far : late));
          break;
        case 1:
          rel.InsertSet(Key(i), IntervalSet(Interval::Point(
                                    i % 2 == 0 ? late : far)));
          break;
        default:
          rel.InsertDisjoint(Key(i), IntervalSet(Interval::Closed(
                                         late, late + Rational(1))));
          break;
      }
    }
    ExpectMeetsRandomWindows(rel, rng, 200);
    ExpectMeets(rel, Interval::AtMost(Rational(-100)), 1);
    ExpectMeets(rel, Interval::Point(Rational(-107)), 1);
    ExpectMeets(rel, Interval::AtLeast(Rational(300)), 1);
    ExpectMeets(rel, Interval::Open(Rational(301), Rational(400)), 1);
  }
}

TEST(RelationTimeIndexTest, RemovalsDropTheIndex) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 200);
    ExpectMeetsRandomWindows(rel, rng, 20, true);

    // RemoveRegion erases some tuples (reordering the rows) and trims others.
    rel.RemoveRegion(IntervalSet(Interval::Closed(Rational(20), Rational(60))));
    ExpectMeetsRandomWindows(rel, rng, 100, true);

    // RemoveSet: a whole extent, then part of one.
    const Tuple gone = *rel.Rows().front().tuple;
    rel.RemoveSet(gone, IntervalSet(Interval::All()));
    ASSERT_EQ(rel.Find(gone), nullptr);
    ExpectMeetsRandomWindows(rel, rng, 50, true);
    const Tuple trimmed = *rel.Rows().back().tuple;
    rel.RemoveSet(trimmed, IntervalSet(Interval::AtLeast(
                               rel.Find(trimmed)->Hull().lo().value)));
    ExpectMeetsRandomWindows(rel, rng, 50, true);

    // SubtractCoverage undoes exactly what a later insert added.
    ExpectMeetsRandomWindows(rel, rng, 5);
    Relation fresh;
    for (int i = 0; i < 40; ++i) {
      IntervalSet added = rel.Insert(Key(3000 + i), RandomFiniteInterval(rng));
      fresh.InsertSet(Key(3000 + i), added);
    }
    ExpectMeetsRandomWindows(rel, rng, 50);
    rel.SubtractCoverage(fresh);
    ExpectMeetsRandomWindows(rel, rng, 50, true);
    const Tuple single = *rel.Rows().front().tuple;
    IntervalSet widened = rel.Insert(single, Interval::Point(Rational(-50)));
    ExpectMeetsRandomWindows(rel, rng, 20);
    rel.SubtractCoverage(single, widened);
    ExpectMeetsRandomWindows(rel, rng, 50, true);
  }
}

TEST(RelationTimeIndexTest, CopyMoveAndClear) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 150);
    ExpectMeetsRandomWindows(rel, rng, 20, true);
    FillRandom(&rel, rng, 500, 10);  // a tail the copies must not lose

    Relation copy = rel;
    EXPECT_EQ(copy.time_index_builds(), 0u);
    ExpectMeetsRandomWindows(copy, rng, 50, true);
    Relation assigned;
    FillRandom(&assigned, rng, 900, 40);
    ExpectMeetsRandomWindows(assigned, rng, 5, true);
    assigned = rel;
    ExpectMeetsRandomWindows(assigned, rng, 50, true);

    // A move keeps the index, tail included.
    const size_t builds = rel.time_index_builds();
    Relation moved = std::move(rel);
    ExpectMeetsRandomWindows(moved, rng, 50);
    EXPECT_EQ(moved.time_index_builds(), builds);
    Relation move_assigned;
    move_assigned = std::move(moved);
    ExpectMeetsRandomWindows(move_assigned, rng, 50);

    move_assigned.Clear();
    std::vector<uint32_t> rows;
    EXPECT_EQ(move_assigned.RowsMeeting(Interval::All(), 1, &rows), 0u);
    EXPECT_TRUE(rows.empty());
    FillRandom(&move_assigned, rng, 0, 60);
    ExpectMeetsRandomWindows(move_assigned, rng, 50, true);
  }
}

TEST(RelationTimeIndexTest, RandomEditsMatchBruteForce) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    Relation rel;
    FillRandom(&rel, rng, 0, 100);
    int next_key = 100;
    for (int step = 0; step < 300; ++step) {
      switch (rng() % 6) {
        case 0:
          FillRandom(&rel, rng, next_key, 1 + static_cast<int>(rng() % 5));
          next_key += 5;
          break;
        case 1:
        case 2:
          rel.Insert(Key(static_cast<int>(rng() % next_key)),
                     RandomFiniteInterval(rng));
          break;
        case 3:
          rel.RemoveSet(Key(static_cast<int>(rng() % next_key)),
                        IntervalSet(RandomInterval(rng)));
          break;
        case 4:
          if (rng() % 4 == 0) {
            rel.RemoveRegion(IntervalSet(RandomFiniteInterval(rng)));
          }
          break;
        default:
          break;
      }
      ExpectMeetsRandomWindows(rel, rng, 4);
    }
  }
}

// Rows of another arity are never counted as left out, and a relation of
// mixed arities returns every row rather than guess which it skipped.
TEST(RelationTimeIndexTest, OtherAritiesAreNeverCounted) {
  Relation rel;
  for (int i = 0; i < 40; ++i) {
    rel.Insert(Key(i), Interval::Point(Rational(i)));
  }
  std::vector<uint32_t> rows;
  EXPECT_EQ(rel.RowsMeeting(Interval::Point(Rational(3)), 2, &rows), 0u);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rel.RowsMeeting(Interval::Point(Rational(3)), 1, &rows), 39u);
  EXPECT_EQ(rows, std::vector<uint32_t>{3});

  Relation mixed = rel;
  mixed.Insert(Tuple{Value::Int(1), Value::Int(2)},
               Interval::Point(Rational(0)));
  mixed.Insert(Key(1000), Interval::Point(Rational(1000)));
  Relation rebuilt = mixed;  // a copy builds over every row
  EXPECT_EQ(rebuilt.RowsMeeting(Interval::Point(Rational(3)), 1, &rows), 0u);
  EXPECT_EQ(rows.size(), rebuilt.Rows().size());
}

// Concurrent readers of one const relation share a single lazy build.
TEST(RelationTimeIndexTest, ConcurrentReadersBuildOnce) {
  std::mt19937_64 rng(42);
  Relation rel;
  FillRandom(&rel, rng, 0, 500);
  const Relation& shared = rel;
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&shared, &mismatches, t] {
      std::mt19937_64 local(100 + t);
      std::vector<uint32_t> rows;
      for (int i = 0; i < 200; ++i) {
        const Interval w = RandomInterval(local);
        shared.RowsMeeting(w, 1, &rows);
        if (rows != BruteForceMeeting(shared, w, 1)) ++mismatches[t];
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  EXPECT_EQ(shared.time_index_builds(), 1u);
}

}  // namespace
}  // namespace dmtl
