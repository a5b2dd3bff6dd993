#ifndef DMTL_COMMON_ARENA_H_
#define DMTL_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dmtl {

// Bump-pointer arena for round-local allocations.
//
// The semi-naive engine derives millions of short-lived IntervalSets per
// fixpoint round - row extents, operator outputs, window clamps, insertion
// deltas - all dead by the next round barrier. A RoundArena hands out
// storage by bumping a pointer through chunked blocks; nothing is freed
// individually. Reset() at the barrier rewinds the bump pointer and reuses
// the chunks for the next round, so the steady state performs no heap
// traffic at all for transient sets.
//
// Lifetime contract (see docs/ENGINE.md, "Memory architecture"): a buffer
// obtained from a RoundArena is valid until the arena's next Reset() or
// destruction. Anything that must outlive a round - relation storage,
// operator memos, chain guard caches - is pinned to the general heap via
// SmallIntervalVec::MarkPersistent() and never touches the arena.
//
// Not thread-safe; each engine run (or session) owns its arena and resets
// it at the round barrier on the thread that evaluates.
class RoundArena {
 public:
  // Chunks start small and double up to the cap: tiny strata don't reserve
  // megabytes, big rounds amortize the chunk walk, and the first
  // materialization in a process only faults in a few fresh pages (a 64 KiB
  // opening chunk showed up as a measurable first-call cost on the smallest
  // synthetic workloads).
  static constexpr size_t kInitialChunkBytes = 16 * 1024;
  static constexpr size_t kMaxChunkBytes = 1024 * 1024;
  static constexpr size_t kAlignment = 16;

  RoundArena() = default;
  RoundArena(const RoundArena&) = delete;
  RoundArena& operator=(const RoundArena&) = delete;

  // Returns `bytes` of storage aligned for Interval payloads, or nullptr
  // for oversized requests (callers fall back to the heap; the arena is an
  // optimization, never a requirement). Never returns nullptr for requests
  // up to kMaxChunkBytes / 2.
  void* Allocate(size_t bytes) {
    bytes = (bytes + kAlignment - 1) & ~(kAlignment - 1);
    if (bytes > kMaxChunkBytes / 2) {
      ++heap_fallbacks_;
      return nullptr;
    }
    if (pos_ + bytes > chunk_size_) Refill(bytes);
    void* out = cur_ + pos_;
    pos_ += bytes;
    bytes_allocated_ += bytes;
    ++allocs_;
    return out;
  }

  // Extends `ptr` (previously returned by Allocate with `old_bytes`) in
  // place when it is the arena's most recent allocation and the current
  // chunk has room. A vector that doubles repeatedly with no interleaved
  // spill then grows by advancing the bump pointer instead of abandoning
  // one cold buffer per doubling - without this, round-local churn streams
  // through fresh memory and loses to malloc's LIFO block reuse on
  // insert-heavy workloads. Returns false (caller reallocates) otherwise;
  // a pointer from a different arena or chunk never matches the tail
  // check, so mismatched calls are safely rejected.
  bool TryExtend(void* ptr, size_t old_bytes, size_t new_bytes) {
    old_bytes = (old_bytes + kAlignment - 1) & ~(kAlignment - 1);
    new_bytes = (new_bytes + kAlignment - 1) & ~(kAlignment - 1);
    if (new_bytes > kMaxChunkBytes / 2) return false;
    auto* p = static_cast<unsigned char*>(ptr);
    if (cur_ == nullptr || p + old_bytes != cur_ + pos_ || p < cur_) {
      return false;
    }
    const size_t base = pos_ - old_bytes;
    if (base + new_bytes > chunk_size_) return false;
    pos_ = base + new_bytes;
    bytes_allocated_ += new_bytes - old_bytes;
    return true;
  }

  // Gives back `ptr` (previously returned by Allocate with `bytes`) when it
  // is still the arena's most recent allocation, rewinding the bump pointer
  // over it. Kernel temporaries mostly die right after their consumer reads
  // them - last allocated, first dead - so this LIFO reclamation keeps the
  // round's working set as compact as malloc's free-block reuse instead of
  // streaming through cold memory (a single-round insert-heavy workload
  // touches megabytes otherwise and loses on cache capacity alone). A
  // pointer from a different arena or chunk never matches the tail check.
  bool TryReclaim(void* ptr, size_t bytes) {
    bytes = (bytes + kAlignment - 1) & ~(kAlignment - 1);
    auto* p = static_cast<unsigned char*>(ptr);
    if (cur_ == nullptr || p < cur_ || p + bytes != cur_ + pos_) {
      return false;
    }
    pos_ -= bytes;
    bytes_allocated_ -= bytes;
    return true;
  }

  // Rewinds the bump pointer to the first chunk, retaining storage for
  // reuse. Invalidates all outstanding allocations. A round that spilled
  // past its first chunk consolidates: the walked chain is replaced by one
  // chunk covering the round's whole footprint, so the steady state is a
  // single warm chunk — every later Reset is a pointer rewind, and the
  // TryExtend/TryReclaim tail tricks never lose to a chunk boundary. (The
  // opening chunk can then stay small for the first-call cost without
  // taxing multi-round workloads with a per-round small-chunk walk.)
  void Reset() {
    if (chunk_index_ > 0) Consolidate();
    chunk_index_ = 0;
    pos_ = 0;
    if (!chunks_.empty()) {
      cur_ = chunks_[0].data.get();
      chunk_size_ = chunks_[0].size;
    }
  }

  // --- observability (EngineStats::arena_*) -------------------------------
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t bytes_allocated() const { return bytes_allocated_; }
  size_t allocs() const { return allocs_; }
  size_t heap_fallbacks() const { return heap_fallbacks_; }
  void CountHeapFallback() { ++heap_fallbacks_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
  };

  void Refill(size_t bytes);
  void Consolidate();

  std::vector<Chunk> chunks_;
  unsigned char* cur_ = nullptr;
  size_t chunk_index_ = 0;  // chunk backing cur_ (SIZE_MAX-like 0 pre-init)
  size_t chunk_size_ = 0;
  size_t pos_ = 0;

  size_t bytes_reserved_ = 0;
  size_t bytes_allocated_ = 0;
  size_t allocs_ = 0;
  size_t heap_fallbacks_ = 0;
};

namespace arena_internal {
// Ambient arena of the calling thread; null when no scope is active.
extern thread_local RoundArena* g_current;
}  // namespace arena_internal

// RAII ambient-arena scope. While alive on a thread, SmallIntervalVec spills
// that would hit `operator new` are served from the arena instead (unless
// the vector is pinned). Scopes nest: the constructor saves the previous
// ambient arena and the destructor restores it, so nested materializations
// (a streaming slide's cut-off run inside a session operation) and fleet
// workers that run one session after another stay correct.
class ArenaScope {
 public:
  explicit ArenaScope(RoundArena* arena)
      : saved_(arena_internal::g_current) {
    arena_internal::g_current = arena;
  }
  ~ArenaScope() { arena_internal::g_current = saved_; }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  RoundArena* saved_;
};

// The ambient arena of this thread, or null.
inline RoundArena* CurrentArena() { return arena_internal::g_current; }

}  // namespace dmtl

#endif  // DMTL_COMMON_ARENA_H_
