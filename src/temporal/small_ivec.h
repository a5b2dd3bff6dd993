#ifndef DMTL_TEMPORAL_SMALL_IVEC_H_
#define DMTL_TEMPORAL_SMALL_IVEC_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/temporal/interval.h"

namespace dmtl {

// A vector of Intervals with inline storage for the first two elements.
//
// The contract workload is dominated by interval sets of size 1-2 (punctual
// row extents, single clamped emissions, Insert deltas); storing those
// inline makes the IntervalSet temporaries on the emit/intersect hot path
// allocation-free. Larger sets spill to a heap buffer exactly like
// std::vector.
//
// Interval has no default constructor but is trivially copyable, so the
// inline slots are raw storage and every element transfer is a memcpy;
// nothing is ever destroyed element-wise.
class SmallIntervalVec {
 public:
  static constexpr size_t kInlineCapacity = 2;

  using value_type = Interval;
  using iterator = Interval*;
  using const_iterator = const Interval*;

  SmallIntervalVec() = default;
  ~SmallIntervalVec() { ReleaseHeap(); }

  SmallIntervalVec(const SmallIntervalVec& other) { CopyFrom(other); }
  SmallIntervalVec& operator=(const SmallIntervalVec& other) {
    if (this == &other) return *this;
    size_ = 0;
    CopyFrom(other);
    return *this;
  }
  SmallIntervalVec(SmallIntervalVec&& other) noexcept { StealFrom(&other); }
  SmallIntervalVec& operator=(SmallIntervalVec&& other) noexcept {
    if (this == &other) return *this;
    ReleaseHeap();
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
    StealFrom(&other);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  Interval* data() { return heap_ != nullptr ? heap_ : InlinePtr(); }
  const Interval* data() const {
    return heap_ != nullptr ? heap_ : InlinePtr();
  }

  Interval& operator[](size_t i) { return data()[i]; }
  const Interval& operator[](size_t i) const { return data()[i]; }
  Interval& front() { return data()[0]; }
  const Interval& front() const { return data()[0]; }
  Interval& back() { return data()[size_ - 1]; }
  const Interval& back() const { return data()[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void push_back(const Interval& iv) {
    if (size_ == capacity_) Grow(size_ + 1);
    std::memcpy(static_cast<void*>(data() + size_), &iv, sizeof(Interval));
    ++size_;
  }

  // Inserts `iv` before position `pos` (an index, not an iterator, so the
  // call survives the reallocation it may trigger).
  void insert_at(size_t pos, const Interval& iv) {
    if (size_ == capacity_) Grow(size_ + 1);
    Interval* d = data();
    std::memmove(static_cast<void*>(d + pos + 1), d + pos,
                 (size_ - pos) * sizeof(Interval));
    std::memcpy(static_cast<void*>(d + pos), &iv, sizeof(Interval));
    ++size_;
  }

  // Erases the index range [first, last).
  void erase_range(size_t first, size_t last) {
    Interval* d = data();
    std::memmove(static_cast<void*>(d + first), d + last,
                 (size_ - last) * sizeof(Interval));
    size_ -= last - first;
  }

  void swap(SmallIntervalVec& other) noexcept {
    SmallIntervalVec tmp(std::move(other));
    other = std::move(*this);
    *this = std::move(tmp);
  }

  friend bool operator==(const SmallIntervalVec& a,
                         const SmallIntervalVec& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const SmallIntervalVec& a,
                         const SmallIntervalVec& b) {
    return !(a == b);
  }

 private:
  static_assert(std::is_trivially_copyable_v<Interval>,
                "SmallIntervalVec moves elements with memcpy");

  Interval* InlinePtr() {
    return std::launder(reinterpret_cast<Interval*>(inline_buf_));
  }
  const Interval* InlinePtr() const {
    return std::launder(reinterpret_cast<const Interval*>(inline_buf_));
  }

  void ReleaseHeap() { ::operator delete(heap_); }

  void Grow(size_t need) {
    size_t cap = capacity_ * 2;
    if (cap < need) cap = need;
    auto* fresh =
        static_cast<Interval*>(::operator new(cap * sizeof(Interval)));
    std::memcpy(static_cast<void*>(fresh), data(), size_ * sizeof(Interval));
    ReleaseHeap();
    heap_ = fresh;
    capacity_ = cap;
  }

  void CopyFrom(const SmallIntervalVec& other) {
    reserve(other.size_);
    std::memcpy(static_cast<void*>(data()), other.data(),
                other.size_ * sizeof(Interval));
    size_ = other.size_;
  }

  // Takes `other`'s buffer (or memcpys its inline elements), leaving it
  // empty. Requires *this to own no heap buffer.
  void StealFrom(SmallIntervalVec* other) {
    if (other->heap_ != nullptr) {
      heap_ = other->heap_;
      capacity_ = other->capacity_;
      other->heap_ = nullptr;
      other->capacity_ = kInlineCapacity;
    } else {
      std::memcpy(static_cast<void*>(InlinePtr()), other->InlinePtr(),
                  other->size_ * sizeof(Interval));
    }
    size_ = other->size_;
    other->size_ = 0;
  }

  alignas(Interval) unsigned char inline_buf_[kInlineCapacity *
                                              sizeof(Interval)];
  Interval* heap_ = nullptr;  // engaged once the inline capacity spills
  size_t size_ = 0;
  size_t capacity_ = kInlineCapacity;
};

}  // namespace dmtl

#endif  // DMTL_TEMPORAL_SMALL_IVEC_H_
