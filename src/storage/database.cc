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
  // The indexes point into the *source's* data_; drop them and let the
  // next probe rebuild against our own storage.
  indexes_.clear();
  time_index_.reset();
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : data_(std::move(other.data_)),
      approx_intervals_(other.approx_intervals_),
      stored_intervals_(other.stored_intervals_),
      rows_(std::move(other.rows_)),
      first_arg_index_(std::move(other.first_arg_index_)),
      indexes_(std::move(other.indexes_)),
      time_index_(std::move(other.time_index_)),
      time_index_builds_(other.time_index_builds_) {
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
  time_index_ = std::move(other.time_index_);
  time_index_builds_ = other.time_index_builds_;
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

void Relation::TimeIndex::Widen(const Tuple* tuple, const Interval& iv) {
  auto it = pos_of.find(tuple);
  if (it == pos_of.end()) return;  // appended after the build: in the tail
  const size_t p = it->second;
  if (!is_stale[p] && internal::CompareLower(iv.lo(), lo[p]) < 0) {
    // The sorted order cannot take an earlier start in place.
    is_stale[p] = true;
    stale.push_back(row[p]);
  }
  // A later end only raises maxima, so it walks up in place until an
  // ancestor already ends at or after it.
  for (size_t node = leaves + p;
       node != 0 && internal::CompareUpper(iv.hi(), max_hi[node]) > 0;
       node /= 2) {
    max_hi[node] = iv.hi();
  }
}

void Relation::TimeIndex::Collect(size_t node, size_t begin, size_t end,
                                  size_t m, const Bound& from,
                                  std::vector<uint32_t>* rows) const {
  if (begin >= m || !internal::BoundsNonEmpty(from, max_hi[node])) return;
  if (end - begin == 1) {
    if (!is_stale[begin]) rows->push_back(row[begin]);
    return;
  }
  const size_t mid = begin + (end - begin) / 2;
  Collect(2 * node, begin, mid, m, from, rows);
  Collect(2 * node + 1, mid, end, m, from, rows);
}

void Relation::BuildTimeIndex() const {
  auto index = std::make_unique<TimeIndex>();
  const size_t n = rows_.size();
  std::vector<Interval> hulls;
  hulls.reserve(n);
  for (const ScanEntry& r : rows_) hulls.push_back(r.extent->Hull());
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return internal::CompareLower(hulls[a].lo(), hulls[b].lo()) < 0;
  });

  index->built = n;
  if (n != 0) index->arity = rows_[0].tuple->size();
  index->leaves = std::bit_ceil(std::max<size_t>(n, 1));
  index->lo.reserve(n);
  index->pos_of.reserve(n);
  // Padding leaves copy a real end: they lie past every lookup's prefix,
  // so they only ever loosen their ancestors' maxima.
  index->max_hi.assign(2 * index->leaves,
                       n == 0 ? Bound::Infinite() : hulls[order[0]].hi());
  for (size_t p = 0; p < n; ++p) {
    const uint32_t r = order[p];
    index->lo.push_back(hulls[r].lo());
    index->max_hi[index->leaves + p] = hulls[r].hi();
    index->pos_of.emplace(rows_[r].tuple, static_cast<uint32_t>(p));
    if (rows_[r].tuple->size() != index->arity) {
      index->arity = TimeIndex::kMixedArity;
    }
  }
  for (size_t node = index->leaves - 1; node != 0; --node) {
    const Bound& a = index->max_hi[2 * node];
    const Bound& b = index->max_hi[2 * node + 1];
    index->max_hi[node] = internal::CompareUpper(a, b) >= 0 ? a : b;
  }
  index->row = std::move(order);
  index->is_stale.assign(n, false);
  time_index_ = std::move(index);
  ++time_index_builds_;
}

size_t Relation::RowsMeeting(const Interval& window, size_t arity,
                             std::vector<uint32_t>* rows) const {
  rows->clear();
  std::lock_guard<std::mutex> lock(index_mutex_);
  const size_t n = rows_.size();
  if (time_index_ == nullptr ||
      n - time_index_->built + time_index_->stale.size() >
          std::max<size_t>(32, time_index_->built / 4)) {
    BuildTimeIndex();
  }
  const TimeIndex& index = *time_index_;
  size_t skipped = 0;
  if (index.arity == arity) {
    // Rows starting no later than the window ends form a prefix of the
    // sorted order; the tree picks those ending no earlier than it starts.
    const size_t m = static_cast<size_t>(
        std::partition_point(index.lo.begin(), index.lo.end(),
                             [&](const Bound& lo) {
                               return internal::BoundsNonEmpty(lo,
                                                               window.hi());
                             }) -
        index.lo.begin());
    index.Collect(1, 0, index.leaves, m, window.lo(), rows);
    skipped = index.built - index.stale.size() - rows->size();
    rows->insert(rows->end(), index.stale.begin(), index.stale.end());
    std::sort(rows->begin(), rows->end());
  } else if (index.arity == TimeIndex::kMixedArity) {
    // The skipped rows' arities are unknown: return every indexed row.
    for (size_t r = 0; r < index.built; ++r) {
      rows->push_back(static_cast<uint32_t>(r));
    }
  }
  // Otherwise every indexed row has another arity and none is counted.
  for (size_t r = index.built; r < n; ++r) {
    rows->push_back(static_cast<uint32_t>(r));
  }
  return skipped;
}

size_t Relation::time_index_builds() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return time_index_builds_;
}

void Relation::DropIndexes() {
  std::lock_guard<std::mutex> lock(index_mutex_);
  indexes_.clear();
  time_index_.reset();
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
  if (indexes_.empty() && time_index_ == nullptr) return;
  // Single-writer contract: no reader runs concurrently with a mutator, so
  // the lock is uncontended; it keeps TSan and accidental misuse honest.
  std::lock_guard<std::mutex> lock(index_mutex_);
  for (auto& [sig, index] : indexes_) {
    IndexTuple(index.get(), it->first, it->second, inserted, iv);
  }
  // A new tuple's row is appended past the indexed rows: nothing to widen.
  if (time_index_ != nullptr && !inserted) time_index_->Widen(&it->first, iv);
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
  // Envelopes never shrink and entries may now reference erased tuples or
  // replaced sets; drop the indexes and let the next probe rebuild.
  DropIndexes();
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
  DropIndexes();
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
  DropIndexes();
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
    DropIndexes();
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
