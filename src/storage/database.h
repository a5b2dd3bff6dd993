#ifndef DMTL_STORAGE_DATABASE_H_
#define DMTL_STORAGE_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/atom.h"
#include "src/ast/value.h"
#include "src/common/status.h"
#include "src/temporal/interval_set.h"

namespace dmtl {

// A temporal fact P(a)@rho: a ground tuple holding over an interval.
struct Fact {
  PredicateId predicate = 0;
  Tuple args;
  Interval interval = Interval::Point(Rational(0));

  static Fact Make(std::string_view pred, Tuple args, Interval iv);

  std::string ToString() const;
};

// The extent of one predicate: ground tuple -> coalesced interval set.
//
// Thread-safety / invalidation contract: Relation is single-writer. Every
// const member (Find, FindByFirstArg, Contains, data(), the counters) is a
// pure read, so any number of concurrent readers are safe as long as no
// thread is inside a mutating member (Insert, InsertSet, Clear, assignment).
// The engine itself evaluates on one thread and fleet sessions share no
// database, so this is a contract for callers that read one store from
// several threads. The exceptions to "const is a pure read" are
// GetIndex and RowsMeeting, which may build a bound-signature or the
// time-ordered index lazily; they are serialized by a dedicated mutex and
// therefore safe to call from any number of concurrent reader threads.
//
// The first-argument secondary index is maintained *eagerly* inside Insert
// (a new tuple appends one entry; new intervals on existing tuples leave it
// untouched), never rebuilt on the read path. Its Tuple pointers stay valid
// across further inserts because unordered_map keys are node-stable; they
// are invalidated only by Clear and by assignment, like any other pointer
// into the relation.
class Relation {
 public:
  using Map = std::unordered_map<Tuple, IntervalSet, TupleHash>;

  // --- on-demand bound-signature indexes ---------------------------------
  // A signature is a bitmask over argument positions (bit i set = position i
  // is bound at probe time). The index maps the projection of a tuple onto
  // those positions to the posting list of matching tuples. Each posting
  // list carries the convex hull of every stored interval of its tuples
  // ("temporal envelope"): enumeration can skip the entire list, or single
  // entries via IntervalSet::Hull, when the probe's time window cannot
  // intersect it.
  struct IndexEntry {
    const Tuple* tuple = nullptr;
    const IntervalSet* extent = nullptr;  // the live set stored in data_
    // Hull of the entry's stored extent, maintained on insert (never
    // narrower than the live hull, so pruning on it is sound). Stored
    // inline so an enumeration can reject an entry from the contiguous
    // posting array alone, without dereferencing the extent.
    Interval hull = Interval::All();
  };
  struct PostingList {
    std::vector<IndexEntry> entries;
    // Hull of every interval of every entry; never shrinks. Engaged as soon
    // as the list has an entry (stored sets are non-empty).
    std::optional<Interval> envelope;

    void Widen(const Interval& iv) {
      envelope = envelope.has_value() ? envelope->Hull(iv) : iv;
    }
  };
  struct BoundIndex {
    std::vector<size_t> positions;  // ascending; decoded from the signature
    std::unordered_map<Tuple, PostingList, TupleHash> buckets;
    // Tuple -> its entry, so later inserts on an existing tuple can widen
    // that entry's hull in place. PostingList addresses are node-stable in
    // buckets; entry indexes are stable because entries only append.
    std::unordered_map<const Tuple*, std::pair<PostingList*, size_t>>
        entry_of;

    const PostingList* Lookup(const Tuple& key) const {
      auto it = buckets.find(key);
      return it == buckets.end() ? nullptr : &it->second;
    }
  };

  // One row of the contiguous scan slab (see Rows()).
  struct ScanEntry {
    const Tuple* tuple = nullptr;
    const IntervalSet* extent = nullptr;
  };

  Relation() = default;
  // The secondary indexes point into data_, so copies drop them (rebuilt
  // lazily on the next probe); moves keep them (unordered_map nodes are
  // address-stable across container moves).
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  // Adds (tuple, iv); returns the newly covered portion (empty when the
  // fact was already entailed by stored intervals).
  IntervalSet Insert(const Tuple& tuple, const Interval& iv);
  // Bulk form: merges the whole set in one coalescing sweep
  // (IntervalSet::UnionWithDelta) instead of one Insert per component, and
  // returns the newly covered portion.
  IntervalSet InsertSet(const Tuple& tuple, const IntervalSet& set);
  // Adds `set`, which the caller guarantees is disjoint from the stored
  // extent of `tuple` (it may touch it), so all of it is new: a plain
  // coalescing union, with no delta to compute. The engine's round delta
  // takes every emission's fresh portion this way - the store contains the
  // round delta, and fresh coverage is disjoint from the store as it was
  // before the insert.
  void InsertDisjoint(const Tuple& tuple, const IntervalSet& set);

  const IntervalSet* Find(const Tuple& tuple) const;
  bool Contains(const Tuple& tuple, const Rational& t) const;

  // Tuples whose first argument equals `v`, via the eagerly-maintained
  // secondary index (see the class comment for the invalidation contract).
  // Joins that arrive with the leading argument bound - the dominant
  // pattern in the contract, where almost every predicate is keyed by
  // account - probe this instead of scanning the whole relation. A pure
  // read: safe to call from concurrent reader threads. Returns nullptr
  // when no tuple matches.
  const std::vector<const Tuple*>* FindByFirstArg(const Value& v) const;

  // Returns the index for `signature` (a non-zero bitmask of argument
  // positions, all < 64), building it on first request. Thread-safe against
  // concurrent readers (serialized internally); maintained incrementally by
  // Insert under the single-writer contract. Tuples too short to cover the
  // signature's highest position are omitted - they can never unify with an
  // atom that has a term at that position. Sets `built_now` (if non-null) to
  // whether this call constructed the index. Returns nullptr for signature
  // 0 (probe with no bound positions - just scan).
  const BoundIndex* GetIndex(uint64_t signature,
                             bool* built_now = nullptr) const;

  // Number of bound-signature indexes currently materialized (for tests and
  // stats).
  size_t num_indexes() const;

  // --- time-ordered index over the rows' extent hulls ---------------------
  // Writes to `rows` the positions in Rows(), ascending, of a superset of
  // the rows of `arity` whose extent hull overlaps `window`, and returns
  // the number of rows of `arity` it left out (each fails that hull test).
  // The superset holds every row added, or whose hull start moved earlier,
  // since the index was built, and may hold rows of other arities, so
  // callers keep their exact arity and hull tests. This is the one lookup
  // for scans that bind no argument: time is their only selective part.
  //
  // The index is built on first request, like GetIndex, and serialized by
  // the same mutex. Inserts keep it usable: a later hull end is raised in
  // place; new rows and earlier starts land in an unsorted tail that
  // triggers a rebuild once it outgrows a quarter of the indexed rows. It
  // is dropped wherever the bound-signature indexes are (removals, copy,
  // Clear).
  size_t RowsMeeting(const Interval& window, size_t arity,
                     std::vector<uint32_t>* rows) const;
  // Number of times the time-ordered index was (re)built (for tests).
  size_t time_index_builds() const;

  // Removes `fresh`'s coverage from this relation: the engine's rollback
  // primitive. `fresh` must hold coverage previously reported as *newly
  // inserted* by Insert/InsertSet (so it is a subset of what is stored);
  // subtracting it restores exactly the pre-insertion state. Tuples whose
  // extent becomes empty are erased. Bound-signature indexes are dropped
  // (their envelopes and pointers may be stale) and the first-argument
  // index is rebuilt when tuples vanished; pointers previously obtained
  // from either are invalidated. Single-writer, like all mutators.
  void SubtractCoverage(const Relation& fresh);
  // Single-tuple form with the same contract.
  void SubtractCoverage(const Tuple& tuple, const IntervalSet& set);

  // General removal (no fresh-subset requirement, unlike SubtractCoverage):
  // subtracts `set` from the stored extent of `tuple` - `set` may cover
  // times the tuple never held. Returns the portion actually removed
  // (stored extent ∩ set). Same invalidation contract as SubtractCoverage.
  IntervalSet RemoveSet(const Tuple& tuple, const IntervalSet& set);

  // Bulk sliding-window form: subtracts `region` from every stored extent.
  // Returns the number of interval pieces removed. Single-writer, like all
  // mutators.
  size_t RemoveRegion(const IntervalSet& region);

  // Contiguous scan slab: one (tuple, extent) row per stored tuple, in
  // insertion order. Full scans walk this flat array instead of chasing
  // unordered_map nodes, so enumeration is cache-linear. Maintained
  // eagerly by the mutators under the single-writer contract (exactly
  // like the first-argument index); pointers into data_ are node-stable,
  // so rows survive later inserts and are rebuilt only when tuples vanish
  // (SubtractCoverage) or on copy/Clear.
  const std::vector<ScanEntry>& Rows() const { return rows_; }

  bool IsEmpty() const { return data_.empty(); }
  size_t NumTuples() const { return data_.size(); }
  // Exact stored piece count, maintained incrementally by every mutator -
  // O(1), so per-event streaming stats never pay a full-store scan.
  size_t NumIntervals() const { return stored_intervals_; }

  // Monotone count of inserted interval pieces (an upper bound on the
  // stored count, which coalescing can shrink). O(1); used for join-order
  // costing and budget checks.
  size_t approx_intervals() const { return approx_intervals_; }

  const Map& data() const { return data_; }

  void Clear() {
    data_.clear();
    first_arg_index_.clear();
    rows_.clear();
    indexes_.clear();
    time_index_.reset();
    approx_intervals_ = 0;
    stored_intervals_ = 0;
  }

 private:
  // The time-ordered index (see RowsMeeting). Rows [0, built) of rows_ are
  // sorted by hull start; a max-end segment tree over that order lets a
  // lookup descend only into subtrees holding a row that ends inside the
  // window, as an interval tree would.
  struct TimeIndex {
    static constexpr size_t kMixedArity = SIZE_MAX;
    size_t built = 0;
    size_t arity = kMixedArity;  // of every indexed row, if they agree
    size_t leaves = 1;           // tree width: a power of two >= built
    std::vector<Bound> lo;       // hull starts, ascending
    std::vector<uint32_t> row;   // sorted position -> row of rows_
    // Latest hull end under each tree node: node 1 is the root, sorted
    // position p is leaf leaves + p.
    std::vector<Bound> max_hi;
    std::unordered_map<const Tuple*, uint32_t> pos_of;  // -> sorted position
    // Indexed rows whose hull start moved earlier than `lo` records; they
    // are returned unconditionally, like rows appended after the build.
    std::vector<uint32_t> stale;
    std::vector<bool> is_stale;  // by sorted position

    // Records that the tuple's extent grew by coverage inside `iv`.
    void Widen(const Tuple* tuple, const Interval& iv);
    // Appends the rows at sorted positions [begin, end) under `node`, below
    // `m`, whose hull end is not before `from`.
    void Collect(size_t node, size_t begin, size_t end, size_t m,
                 const Bound& from, std::vector<uint32_t>* rows) const;
  };

  // (Re)builds time_index_ over every current row; index_mutex_ held.
  void BuildTimeIndex() const;
  // Drops the bound-signature and time-ordered indexes (their hulls and
  // positions may be stale after a removal).
  void DropIndexes();

  // Finds or creates the stored extent of `tuple`, registering a new tuple
  // with the first-argument index and the scan slab. Sets `inserted`.
  Map::iterator Slot(const Tuple& tuple, bool* inserted);
  // Widens every bound-signature index for a tuple whose extent grew by
  // coverage inside `iv`.
  void WidenIndexes(const Map::iterator& it, bool inserted,
                    const Interval& iv);

  // Adds the tuple (already in data_) to one bound-signature index and
  // widens the affected envelope by `iv`.
  static void IndexTuple(BoundIndex* index, const Tuple& tuple,
                         const IntervalSet& extent, bool new_tuple,
                         const Interval& iv);

  // Rebuilds first_arg_index_ and rows_ from data_ (copies, erasures).
  void RebuildDerived();

  Map data_;
  size_t approx_intervals_ = 0;
  size_t stored_intervals_ = 0;  // exact; see NumIntervals()
  // Contiguous scan slab; see Rows().
  std::vector<ScanEntry> rows_;
  // Secondary index: first argument -> tuples. Updated eagerly by Insert
  // when a new *tuple* appears (new intervals on existing tuples do not
  // touch it); never mutated under const.
  std::unordered_map<Value, std::vector<const Tuple*>> first_arg_index_;
  // Lazily built bound-signature indexes, keyed by signature bitmask.
  // Guarded by index_mutex_: GetIndex may build under const from concurrent
  // reader threads. unique_ptr values keep BoundIndex addresses stable
  // across map growth, so a returned pointer stays valid for the relation's
  // lifetime (until Clear/assignment, like all other pointers into it).
  mutable std::mutex index_mutex_;
  mutable std::unordered_map<uint64_t, std::unique_ptr<BoundIndex>> indexes_;
  // Lazily built time-ordered index; guarded by index_mutex_.
  mutable std::unique_ptr<TimeIndex> time_index_;
  mutable size_t time_index_builds_ = 0;
};

// The temporal database D: all facts, grouped by predicate. Serves as both
// the input database and the materialization target (the chase only ever
// inserts - DatalogMTL state evolution is monotone, as the paper stresses).
//
// Inherits Relation's single-writer contract: concurrent readers are safe
// whenever no thread is mutating.
class Database {
 public:
  Database() = default;

  // Returns the newly covered portion of the fact's interval.
  IntervalSet Insert(const Fact& fact);
  IntervalSet Insert(PredicateId pred, const Tuple& tuple,
                     const Interval& iv);
  // Bulk form; returns the newly covered portion (see Relation::InsertSet).
  IntervalSet InsertSet(PredicateId pred, const Tuple& tuple,
                        const IntervalSet& set);
  // Disjoint bulk form (see Relation::InsertDisjoint); the same fault
  // injection site as InsertSet.
  void InsertDisjoint(PredicateId pred, const Tuple& tuple,
                      const IntervalSet& set);

  // Convenience for tests/examples: Insert("price", {Value::Double(47)},
  // Interval::Point(5)).
  IntervalSet Insert(std::string_view pred, Tuple tuple, const Interval& iv);

  const Relation* Find(PredicateId pred) const;
  const Relation* Find(std::string_view pred) const;

  // True iff P(tuple) holds at time t.
  bool Holds(std::string_view pred, const Tuple& tuple,
             const Rational& t) const;

  // All facts of a predicate as (tuple, interval) pairs, one per stored
  // interval, in unspecified tuple order.
  std::vector<Fact> FactsOf(std::string_view pred) const;

  size_t NumPredicates() const { return relations_.size(); }
  size_t NumTuples() const;
  size_t NumIntervals() const;
  // O(1) upper bound on NumIntervals(); see Relation::approx_intervals().
  size_t approx_intervals() const { return approx_intervals_; }

  void MergeFrom(const Database& other);

  // Rollback primitive: removes exactly `fresh`'s coverage, where `fresh`
  // accumulates portions previously reported as newly inserted (the
  // engine's per-round delta). Restores the database to its state from
  // before those insertions - see Relation::SubtractCoverage for the index
  // invalidation contract.
  void SubtractCoverage(const Database& fresh);
  // Single-fact form (used to undo one paired insertion on a fault path).
  void SubtractCoverage(PredicateId pred, const Tuple& tuple,
                        const IntervalSet& set);

  // General removal of one fact's coverage; see Relation::RemoveSet.
  IntervalSet RemoveSet(PredicateId pred, const Tuple& tuple,
                        const IntervalSet& set);

  // Removes `region` from every extent of `pred` (sliding-window expiry /
  // retraction frontier wipe). Returns interval pieces removed.
  size_t RemoveRegion(PredicateId pred, const IntervalSet& region);

  void Clear() {
    relations_.clear();
    approx_intervals_ = 0;
  }

  const std::unordered_map<PredicateId, Relation>& relations() const {
    return relations_;
  }

  std::string ToString() const;

 private:
  std::unordered_map<PredicateId, Relation> relations_;
  size_t approx_intervals_ = 0;
};

}  // namespace dmtl

#endif  // DMTL_STORAGE_DATABASE_H_
