#ifndef DMTL_EVAL_OP_MEMO_H_
#define DMTL_EVAL_OP_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/eval/operators.h"

namespace dmtl {

// Per-rule cache of unary operator-path outputs - the core of
// interval-delta propagation (EngineOptions::enable_interval_deltas).
//
// For a positive literal of unary-chain shape, evaluation needs
// row.extent ∩ Ops(leaf), where `leaf` is the stored extent of the
// literal's single relational atom and Ops its operator chain. By the
// ChildWindow identity the windowed fast path equals the intersection with
// the *full* un-windowed path output, which is a pure function of the leaf
// set's contents: worth computing once and reusing across every row of
// every subsequent round, keyed by the leaf's address (stable, because
// Relation stores extents in unordered_map nodes and the chase only ever
// inserts).
//
// Lifecycle, driven by the engine at round barriers:
//  - Lookup computes on miss and serves hits while the leaf is unchanged.
//  - When a round's merge adds intervals to a leaf, OnLeafChanged either
//    refreshes each affected entry in place - when every path step
//    distributes over union (see OpPathDeltaRefreshable) the new output is
//    old ∪ Ops(fresh) - or erases it so the next lookup recomputes.
//
// An entry therefore reflects the leaf as of the last round boundary (a
// round-start snapshot read), even though the rest of the round reads the
// live store. Anything a leaf gained mid-round is re-derived by the semi-naive
// delta pass of the next round, so the fixpoint is unchanged; only
// provenance round/rule attribution can shift (documented on
// EngineOptions::enable_interval_deltas).
//
// Not thread-safe: each rule's memo belongs to one engine run (or session),
// which drives it from one thread at a time.
class OperatorMemo {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t refreshes = 0;      // entries updated in place with a delta
    uint64_t invalidations = 0;  // entries erased on non-refreshable growth
  };

  // Returns Ops(*leaf) for `path` (the literal's root-to-leaf chain),
  // computing and caching on miss. `literal` identifies the positive
  // literal within the rule; its path must be identical on every call. The
  // reference stays valid until the next Lookup or OnLeafChanged.
  const IntervalSet& Lookup(size_t literal,
                            const std::vector<OpPathStep>& path,
                            const IntervalSet* leaf);

  // Round-barrier notification that the live set at `leaf` grew by `fresh`
  // (the newly covered intervals of this round's insertions).
  void OnLeafChanged(const IntervalSet* leaf, const IntervalSet& fresh);

  // Retraction notification: the set at `leaf` *lost* coverage (or was
  // erased outright). Shrinking never distributes through the operator
  // paths the way growth can, so every entry keyed on the leaf is dropped;
  // the pointer is used purely as an identity key and never dereferenced -
  // safe to call with the address of an already-destroyed set, which is
  // exactly what Relation::RemoveRegion hands back for erased tuples.
  void OnLeafShrunk(const IntervalSet* leaf);

  // Drops every entry (streaming full invalidation after a retraction whose
  // affected-leaf set was not tracked precisely).
  void Clear();

  bool empty() const { return entries_.empty(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    size_t literal = 0;
    IntervalSet value;
  };
  struct LiteralInfo {
    std::vector<OpPathStep> path;
    bool refreshable = false;
  };

  // Leaf address -> the path outputs memoized against it (usually one; a
  // rule can read the same grounding through several literals).
  std::unordered_map<const IntervalSet*, std::vector<Entry>> entries_;
  std::unordered_map<size_t, LiteralInfo> literals_;
  Stats stats_;
};

}  // namespace dmtl

#endif  // DMTL_EVAL_OP_MEMO_H_
