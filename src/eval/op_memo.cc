#include "src/eval/op_memo.h"

namespace dmtl {

const IntervalSet& OperatorMemo::Lookup(size_t literal,
                                        const std::vector<OpPathStep>& path,
                                        const IntervalSet* leaf) {
  std::vector<Entry>& slot = entries_[leaf];
  for (Entry& e : slot) {
    if (e.literal == literal) {
      ++stats_.hits;
      return e.value;
    }
  }
  ++stats_.misses;
  if (!literals_.count(literal)) {
    literals_.emplace(
        literal, LiteralInfo{path, OpPathDeltaRefreshable(path)});
  }
  slot.push_back(Entry{literal, ApplyOpPath(path, *leaf)});
  return slot.back().value;
}

void OperatorMemo::OnLeafChanged(const IntervalSet* leaf,
                                 const IntervalSet& fresh) {
  auto it = entries_.find(leaf);
  if (it == entries_.end()) return;
  std::vector<Entry>& slot = it->second;
  for (size_t i = 0; i < slot.size();) {
    const LiteralInfo& info = literals_.at(slot[i].literal);
    if (info.refreshable) {
      // The path distributes over union, so Ops(old ∪ fresh) =
      // Ops(old) ∪ Ops(fresh); over-application is idempotent, which makes
      // this safe even when the entry was computed mid-round and already
      // saw part of `fresh`.
      slot[i].value.UnionWith(ApplyOpPath(info.path, fresh));
      ++stats_.refreshes;
      ++i;
    } else {
      slot[i] = std::move(slot.back());
      slot.pop_back();
      ++stats_.invalidations;
    }
  }
  if (slot.empty()) entries_.erase(it);
}

void OperatorMemo::OnLeafShrunk(const IntervalSet* leaf) {
  auto it = entries_.find(leaf);
  if (it == entries_.end()) return;
  stats_.invalidations += it->second.size();
  entries_.erase(it);
}

void OperatorMemo::Clear() {
  for (const auto& [leaf, slot] : entries_) {
    stats_.invalidations += slot.size();
  }
  entries_.clear();
}

}  // namespace dmtl
