#ifndef DMTL_TEMPORAL_SMALL_IVEC_H_
#define DMTL_TEMPORAL_SMALL_IVEC_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dmtl {

// A vector of trivially copyable elements (IntervalSet components) with
// inline storage for the first two.
//
// The contract workload is dominated by interval sets of 1-2 components
// (punctual row extents, single clamped emissions, Insert deltas, one point
// run per persistence grid); storing those inline makes the IntervalSet
// temporaries on the emit/intersect hot path allocation-free. Larger sets
// spill to a heap buffer exactly like std::vector.
//
// The element type need not be default-constructible, so the inline slots
// are raw storage and every element transfer is a memcpy; nothing is ever
// destroyed element-wise.
template <typename T>
class SmallVec {
 public:
  static constexpr size_t kInlineCapacity = 2;

  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  ~SmallVec() { ReleaseHeap(); }

  SmallVec(const SmallVec& other) { CopyFrom(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this == &other) return *this;
    size_ = 0;
    CopyFrom(other);
    return *this;
  }
  SmallVec(SmallVec&& other) noexcept { StealFrom(&other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
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

  T* data() { return heap_ != nullptr ? heap_ : InlinePtr(); }
  const T* data() const {
    return heap_ != nullptr ? heap_ : InlinePtr();
  }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void clear() { size_ = 0; }
  void pop_back() { --size_; }
  // Drops every element from index n on (n <= size()).
  void truncate(size_t n) { size_ = n; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  void push_back(const T& iv) {
    if (size_ == capacity_) Grow(size_ + 1);
    std::memcpy(static_cast<void*>(data() + size_), &iv, sizeof(T));
    ++size_;
  }

  // Inserts `iv` before position `pos` (an index, not an iterator, so the
  // call survives the reallocation it may trigger).
  void insert_at(size_t pos, const T& iv) {
    if (size_ == capacity_) Grow(size_ + 1);
    T* d = data();
    std::memmove(static_cast<void*>(d + pos + 1), d + pos,
                 (size_ - pos) * sizeof(T));
    std::memcpy(static_cast<void*>(d + pos), &iv, sizeof(T));
    ++size_;
  }

  // Erases the index range [first, last).
  void erase_range(size_t first, size_t last) {
    T* d = data();
    std::memmove(static_cast<void*>(d + first), d + last,
                 (size_ - last) * sizeof(T));
    size_ -= last - first;
  }

  void swap(SmallVec& other) noexcept {
    SmallVec tmp(std::move(other));
    other = std::move(*this);
    *this = std::move(tmp);
  }

  friend bool operator==(const SmallVec& a,
                         const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
  friend bool operator!=(const SmallVec& a,
                         const SmallVec& b) {
    return !(a == b);
  }

 private:
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec moves elements with memcpy");

  T* InlinePtr() {
    return std::launder(reinterpret_cast<T*>(inline_buf_));
  }
  const T* InlinePtr() const {
    return std::launder(reinterpret_cast<const T*>(inline_buf_));
  }

  void ReleaseHeap() { ::operator delete(heap_); }

  void Grow(size_t need) {
    size_t cap = capacity_ * 2;
    if (cap < need) cap = need;
    auto* fresh =
        static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(fresh), data(), size_ * sizeof(T));
    ReleaseHeap();
    heap_ = fresh;
    capacity_ = cap;
  }

  void CopyFrom(const SmallVec& other) {
    reserve(other.size_);
    std::memcpy(static_cast<void*>(data()), other.data(),
                other.size_ * sizeof(T));
    size_ = other.size_;
  }

  // Takes `other`'s buffer (or memcpys its inline elements), leaving it
  // empty. Requires *this to own no heap buffer.
  void StealFrom(SmallVec* other) {
    if (other->heap_ != nullptr) {
      heap_ = other->heap_;
      capacity_ = other->capacity_;
      other->heap_ = nullptr;
      other->capacity_ = kInlineCapacity;
    } else {
      std::memcpy(static_cast<void*>(InlinePtr()), other->InlinePtr(),
                  other->size_ * sizeof(T));
    }
    size_ = other->size_;
    other->size_ = 0;
  }

  alignas(T) unsigned char inline_buf_[kInlineCapacity *
                                              sizeof(T)];
  T* heap_ = nullptr;  // engaged once the inline capacity spills
  size_t size_ = 0;
  size_t capacity_ = kInlineCapacity;
};

}  // namespace dmtl

#endif  // DMTL_TEMPORAL_SMALL_IVEC_H_
