#include "src/storage/database.h"

#include <algorithm>
#include <bit>

#include "src/common/fault_injector.h"

namespace dmtl {

Fact Fact::Make(std::string_view pred, Tuple args, Interval iv) {
  Fact f;
  f.predicate = InternPredicate(pred);
  f.args = std::move(args);
  f.interval = iv;
  return f;
}

std::string Fact::ToString() const {
  return PredicateName(predicate) + TupleToString(args) + "@" +
         interval.ToString();
}

void Relation::RebuildDerived() {
  first_arg_index_.clear();
  rows_.clear();
  rows_.reserve(data_.size());
  for (const auto& [tuple, set] : data_) {
    if (!tuple.empty()) first_arg_index_[tuple[0]].push_back(&tuple);
    rows_.push_back(ScanEntry{&tuple, &set});
  }
}

Relation::Relation(const Relation& other)
    : data_(other.data_),
      approx_intervals_(other.approx_intervals_),
      stored_intervals_(other.stored_intervals_) {
  RebuildDerived();
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  data_ = other.data_;
  approx_intervals_ = other.approx_intervals_;
  stored_intervals_ = other.stored_intervals_;
  RebuildDerived();
  // Bound-signature indexes point into the *source's* data_; drop them and
  // let the next probe rebuild against our own storage.
  indexes_.clear();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : data_(std::move(other.data_)),
      approx_intervals_(other.approx_intervals_),
      stored_intervals_(other.stored_intervals_),
      rows_(std::move(other.rows_)),
      first_arg_index_(std::move(other.first_arg_index_)),
      indexes_(std::move(other.indexes_)) {
  other.approx_intervals_ = 0;
  other.stored_intervals_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  data_ = std::move(other.data_);
  approx_intervals_ = other.approx_intervals_;
  stored_intervals_ = other.stored_intervals_;
  rows_ = std::move(other.rows_);
  first_arg_index_ = std::move(other.first_arg_index_);
  indexes_ = std::move(other.indexes_);
  other.approx_intervals_ = 0;
  other.stored_intervals_ = 0;
  return *this;
}

void Relation::IndexTuple(BoundIndex* index, const Tuple& tuple,
                          const IntervalSet& extent, bool new_tuple,
                          const Interval& iv) {
  if (tuple.size() <= index->positions.back()) return;  // can never unify
  if (new_tuple) {
    Tuple key;
    key.reserve(index->positions.size());
    for (size_t p : index->positions) key.push_back(tuple[p]);
    PostingList& list = index->buckets[std::move(key)];
    list.entries.push_back(IndexEntry{&tuple, &extent, extent.Hull()});
    index->entry_of.emplace(&tuple,
                            std::make_pair(&list, list.entries.size() - 1));
    list.Widen(iv);
    return;
  }
  // Existing tuple gained coverage: widen its entry hull in place via the
  // sidecar (exactness is not required - never-narrower-than-live is what
  // keeps hull pruning sound - but the envelope and entry both widen by
  // the same interval the set grew by).
  auto it = index->entry_of.find(&tuple);
  if (it == index->entry_of.end()) return;  // tuple too short at insert time
  auto [list, pos] = it->second;
  IndexEntry& entry = list->entries[pos];
  entry.hull = entry.hull.Hull(iv);
  list->Widen(iv);
}

const Relation::BoundIndex* Relation::GetIndex(uint64_t signature,
                                               bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  if (signature == 0) return nullptr;
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(signature);
  if (it != indexes_.end()) return it->second.get();
  auto index = std::make_unique<BoundIndex>();
  for (uint64_t bits = signature; bits != 0; bits &= bits - 1) {
    index->positions.push_back(static_cast<size_t>(std::countr_zero(bits)));
  }
  for (const auto& [tuple, set] : data_) {
    // Stored sets are never empty, so the whole hull widens the envelope.
    if (!set.IsEmpty()) IndexTuple(index.get(), tuple, set, true, set.Hull());
  }
  const BoundIndex* ptr = index.get();
  indexes_.emplace(signature, std::move(index));
  if (built_now != nullptr) *built_now = true;
  return ptr;
}

size_t Relation::num_indexes() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return indexes_.size();
}

Relation::Map::iterator Relation::Slot(const Tuple& tuple, bool* inserted) {
  auto [it, fresh_tuple] = data_.try_emplace(tuple);
  if (fresh_tuple) {
    // Keep the derived structures incremental: unordered_map nodes are
    // address-stable, so these pointers stay valid across later inserts.
    if (!it->first.empty()) first_arg_index_[it->first[0]].push_back(&it->first);
    rows_.push_back(ScanEntry{&it->first, &it->second});
  }
  *inserted = fresh_tuple;
  return it;
}

void Relation::WidenIndexes(const Map::iterator& it, bool inserted,
                            const Interval& iv) {
  if (indexes_.empty()) return;
  // Single-writer contract: no reader runs concurrently with a mutator, so
  // the lock is uncontended; it keeps TSan and accidental misuse honest.
  std::lock_guard<std::mutex> lock(index_mutex_);
  for (auto& [sig, index] : indexes_) {
    IndexTuple(index.get(), it->first, it->second, inserted, iv);
  }
}

IntervalSet Relation::Insert(const Tuple& tuple, const Interval& iv) {
  bool inserted = false;
  auto it = Slot(tuple, &inserted);
  const size_t before = it->second.size();
  IntervalSet fresh = it->second.Insert(iv);
  approx_intervals_ += fresh.size();
  stored_intervals_ += it->second.size() - before;
  // An already-covered insertion (fresh empty) cannot widen any envelope.
  if (!fresh.IsEmpty()) WidenIndexes(it, inserted, iv);
  return fresh;
}

IntervalSet Relation::InsertSet(const Tuple& tuple, const IntervalSet& set) {
  if (set.IsEmpty()) return IntervalSet();
  bool inserted = false;
  auto it = Slot(tuple, &inserted);
  const size_t before = it->second.size();
  IntervalSet fresh = it->second.UnionWithDelta(set);
  approx_intervals_ += fresh.size();
  stored_intervals_ += it->second.size() - before;
  // Widen envelopes by the hull of what actually changed; a fully covered
  // set (fresh empty, pre-existing tuple) cannot widen anything.
  if (inserted || !fresh.IsEmpty()) {
    WidenIndexes(it, inserted, fresh.IsEmpty() ? set.Hull() : fresh.Hull());
  }
  return fresh;
}

void Relation::InsertDisjoint(const Tuple& tuple, const IntervalSet& set) {
  if (set.IsEmpty()) return;
  bool inserted = false;
  auto it = Slot(tuple, &inserted);
  const size_t before = it->second.size();
  it->second.UnionWith(set);
  approx_intervals_ += set.size();
  stored_intervals_ += it->second.size() - before;
  WidenIndexes(it, inserted, set.Hull());
}

void Relation::SubtractCoverage(const Relation& fresh) {
  bool erased_any = false;
  for (const auto& [tuple, set] : fresh.data()) {
    auto it = data_.find(tuple);
    if (it == data_.end()) continue;
    IntervalSet remaining = it->second.Subtract(set);
    approx_intervals_ -= std::min(approx_intervals_, set.size());
    stored_intervals_ -= it->second.size();
    stored_intervals_ += remaining.size();
    if (remaining.IsEmpty()) {
      data_.erase(it);
      erased_any = true;
    } else {
      it->second = std::move(remaining);
    }
  }
  {
    // Envelopes never shrink and entries may now reference erased tuples or
    // replaced sets; drop the indexes and let the next probe rebuild.
    std::lock_guard<std::mutex> lock(index_mutex_);
    indexes_.clear();
  }
  // Surviving extents were assigned in place (addresses unchanged), so the
  // scan slab only goes stale when tuples vanished.
  if (erased_any) RebuildDerived();
}

void Relation::SubtractCoverage(const Tuple& tuple, const IntervalSet& set) {
  auto it = data_.find(tuple);
  if (it == data_.end()) return;
  IntervalSet remaining = it->second.Subtract(set);
  approx_intervals_ -= std::min(approx_intervals_, set.size());
  stored_intervals_ -= it->second.size();
  stored_intervals_ += remaining.size();
  bool erased = remaining.IsEmpty();
  if (erased) {
    data_.erase(it);
  } else {
    it->second = std::move(remaining);
  }
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    indexes_.clear();
  }
  if (erased) RebuildDerived();
}

IntervalSet Relation::RemoveSet(const Tuple& tuple, const IntervalSet& set) {
  auto it = data_.find(tuple);
  if (it == data_.end() || set.IsEmpty()) return IntervalSet();
  IntervalSet removed = it->second.Intersect(set);
  if (removed.IsEmpty()) return removed;
  IntervalSet remaining = it->second.Subtract(set);
  approx_intervals_ -= std::min(approx_intervals_, removed.size());
  stored_intervals_ -= it->second.size();
  stored_intervals_ += remaining.size();
  bool erased = remaining.IsEmpty();
  if (erased) {
    data_.erase(it);
  } else {
    it->second = std::move(remaining);
  }
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    indexes_.clear();
  }
  if (erased) RebuildDerived();
  return removed;
}

size_t Relation::RemoveRegion(const IntervalSet& region) {
  if (region.IsEmpty() || data_.empty()) return 0;
  size_t removed_pieces = 0;
  bool erased_any = false;
  for (auto it = data_.begin(); it != data_.end();) {
    IntervalSet removed = it->second.Intersect(region);
    if (removed.IsEmpty()) {
      ++it;
      continue;
    }
    removed_pieces += removed.size();
    approx_intervals_ -= std::min(approx_intervals_, removed.size());
    IntervalSet remaining = it->second.Subtract(region);
    stored_intervals_ -= it->second.size();
    stored_intervals_ += remaining.size();
    if (remaining.IsEmpty()) {
      it = data_.erase(it);
      erased_any = true;
    } else {
      it->second = std::move(remaining);
      ++it;
    }
  }
  if (removed_pieces != 0) {
    // Entries may reference erased tuples; envelopes stay sound (they only
    // over-cover after removal) but keeping them alive isn't worth special-
    // casing - drop and let the next probe rebuild, like SubtractCoverage.
    std::lock_guard<std::mutex> lock(index_mutex_);
    indexes_.clear();
  }
  if (erased_any) RebuildDerived();
  return removed_pieces;
}

const IntervalSet* Relation::Find(const Tuple& tuple) const {
  auto it = data_.find(tuple);
  return it == data_.end() ? nullptr : &it->second;
}

const std::vector<const Tuple*>* Relation::FindByFirstArg(
    const Value& v) const {
  auto it = first_arg_index_.find(v);
  return it == first_arg_index_.end() ? nullptr : &it->second;
}

bool Relation::Contains(const Tuple& tuple, const Rational& t) const {
  const IntervalSet* set = Find(tuple);
  return set != nullptr && set->Contains(t);
}

IntervalSet Database::Insert(const Fact& fact) {
  return Insert(fact.predicate, fact.args, fact.interval);
}

IntervalSet Database::Insert(PredicateId pred, const Tuple& tuple,
                             const Interval& iv) {
  IntervalSet fresh = relations_[pred].Insert(tuple, iv);
  approx_intervals_ += fresh.size();
  return fresh;
}

IntervalSet Database::InsertSet(PredicateId pred, const Tuple& tuple,
                                const IntervalSet& set) {
  // Throw-mode site: InsertSet has no Status channel, so an armed fault
  // propagates as an exception that the engine's round protection converts
  // to a clean kInternal after rolling the round back.
  FaultInjector::MaybeThrow("database.insert_set");
  IntervalSet fresh = relations_[pred].InsertSet(tuple, set);
  approx_intervals_ += fresh.size();
  return fresh;
}

void Database::InsertDisjoint(PredicateId pred, const Tuple& tuple,
                              const IntervalSet& set) {
  FaultInjector::MaybeThrow("database.insert_set");
  relations_[pred].InsertDisjoint(tuple, set);
  approx_intervals_ += set.size();
}

IntervalSet Database::Insert(std::string_view pred, Tuple tuple,
                             const Interval& iv) {
  return Insert(InternPredicate(pred), tuple, iv);
}

const Relation* Database::Find(PredicateId pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : &it->second;
}

const Relation* Database::Find(std::string_view pred) const {
  return Find(InternPredicate(pred));
}

bool Database::Holds(std::string_view pred, const Tuple& tuple,
                     const Rational& t) const {
  const Relation* rel = Find(pred);
  return rel != nullptr && rel->Contains(tuple, t);
}

std::vector<Fact> Database::FactsOf(std::string_view pred) const {
  std::vector<Fact> out;
  const Relation* rel = Find(pred);
  if (rel == nullptr) return out;
  PredicateId id = InternPredicate(pred);
  for (const auto& [tuple, set] : rel->data()) {
    for (const Interval& iv : set) {
      Fact f;
      f.predicate = id;
      f.args = tuple;
      f.interval = iv;
      out.push_back(std::move(f));
    }
  }
  return out;
}

size_t Database::NumTuples() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.NumTuples();
  return n;
}

size_t Database::NumIntervals() const {
  size_t n = 0;
  for (const auto& [pred, rel] : relations_) n += rel.NumIntervals();
  return n;
}

void Database::SubtractCoverage(const Database& fresh) {
  for (const auto& [pred, rel] : fresh.relations_) {
    auto it = relations_.find(pred);
    if (it == relations_.end()) continue;
    it->second.SubtractCoverage(rel);
  }
  approx_intervals_ = 0;
  for (const auto& [pred, rel] : relations_) {
    approx_intervals_ += rel.approx_intervals();
  }
}

void Database::SubtractCoverage(PredicateId pred, const Tuple& tuple,
                                const IntervalSet& set) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return;
  it->second.SubtractCoverage(tuple, set);
  approx_intervals_ = 0;
  for (const auto& [p, rel] : relations_) {
    approx_intervals_ += rel.approx_intervals();
  }
}

IntervalSet Database::RemoveSet(PredicateId pred, const Tuple& tuple,
                                const IntervalSet& set) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return IntervalSet();
  IntervalSet removed = it->second.RemoveSet(tuple, set);
  if (!removed.IsEmpty()) {
    if (it->second.IsEmpty()) relations_.erase(it);
    approx_intervals_ = 0;
    for (const auto& [p, rel] : relations_) {
      approx_intervals_ += rel.approx_intervals();
    }
  }
  return removed;
}

size_t Database::RemoveRegion(PredicateId pred, const IntervalSet& region) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return 0;
  size_t removed = it->second.RemoveRegion(region);
  if (removed != 0) {
    if (it->second.IsEmpty()) relations_.erase(it);
    approx_intervals_ = 0;
    for (const auto& [p, rel] : relations_) {
      approx_intervals_ += rel.approx_intervals();
    }
  }
  return removed;
}

void Database::MergeFrom(const Database& other) {
  for (const auto& [pred, rel] : other.relations_) {
    for (const auto& [tuple, set] : rel.data()) {
      InsertSet(pred, tuple, set);
    }
  }
}

std::string Database::ToString() const {
  // Deterministic output: sort by predicate name, then tuple text.
  std::vector<std::string> lines;
  for (const auto& [pred, rel] : relations_) {
    for (const auto& [tuple, set] : rel.data()) {
      lines.push_back(PredicateName(pred) + TupleToString(tuple) + "@" +
                      set.ToString());
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace dmtl
