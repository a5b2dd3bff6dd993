#include "src/common/arena.h"

namespace dmtl {

namespace arena_internal {
thread_local RoundArena* g_current = nullptr;
}  // namespace arena_internal

void RoundArena::Refill(size_t bytes) {
  // Advance through retained chunks first (a Reset rewound us); allocate a
  // fresh, doubled chunk only past the end.
  while (chunk_index_ + 1 < chunks_.size()) {
    ++chunk_index_;
    cur_ = chunks_[chunk_index_].data.get();
    chunk_size_ = chunks_[chunk_index_].size;
    pos_ = 0;
    if (bytes <= chunk_size_) return;
  }
  size_t next_size = chunks_.empty() ? kInitialChunkBytes
                                     : chunks_.back().size * 2;
  if (next_size > kMaxChunkBytes) next_size = kMaxChunkBytes;
  if (next_size < bytes) next_size = bytes;  // bytes <= kMaxChunkBytes / 2
  Chunk c;
  c.data = std::make_unique<unsigned char[]>(next_size);
  c.size = next_size;
  chunks_.push_back(std::move(c));
  bytes_reserved_ += next_size;
  chunk_index_ = chunks_.size() - 1;
  cur_ = chunks_.back().data.get();
  chunk_size_ = next_size;
  pos_ = 0;
}

void RoundArena::Consolidate() {
  // Called from Reset when the finished round walked past its first chunk:
  // swap the whole chain for one chunk sized a power-of-two above the
  // round's footprint (capped — beyond the cap a handful of max-size
  // chunks is fine). The headroom matters: per-round footprints vary, and
  // consolidating to the exact
  // footprint would re-consolidate — one cold allocation each — every
  // time a round runs slightly larger than the last. The consolidated
  // chunk is cold for one round, then permanently warm.
  size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  if (total > kMaxChunkBytes) return;
  size_t size = kInitialChunkBytes;
  while (size < total) size *= 2;
  chunks_.clear();
  Chunk c;
  c.data = std::make_unique<unsigned char[]>(size);
  c.size = size;
  chunks_.push_back(std::move(c));
  bytes_reserved_ += size - total;
}

}  // namespace dmtl
