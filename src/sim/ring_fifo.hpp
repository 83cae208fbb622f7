// SPDX-License-Identifier: Apache-2.0
// RingFifo: a growable FIFO over a power-of-two ring of slots.
//
// Head and tail are free-running counters and a slot is `index & mask`, so
// push and pop touch one slot and no allocator. The ring only allocates
// when it fills up: it doubles, moving the live items to the front, and
// never shrinks, so a FIFO that has reached its working depth runs
// allocation-free from then on. This is the storage behind the per-flit
// queues of the memory path: each NoC port's ring of arrival-stamped
// flits (its egress queue and pipeline in one FIFO) and each SPM bank's
// request queue, where a std::deque allocated and freed a heap node every
// few elements.
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace mp3d::sim {

template <typename T>
class RingFifo {
 public:
  RingFifo() = default;
  /// Pre-size the ring so it holds `min_items` without growing.
  explicit RingFifo(std::size_t min_items) { grow_to(std::bit_ceil(min_items)); }

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  /// Allocated slots: a power of two, or 0 before the first push.
  std::size_t slots() const { return slots_.size(); }

  T& front() {
    MP3D_ASSERT(!empty());
    return slots_[head_ & mask_];
  }
  const T& front() const {
    MP3D_ASSERT(!empty());
    return slots_[head_ & mask_];
  }
  const T& back() const {
    MP3D_ASSERT(!empty());
    return slots_[(tail_ - 1) & mask_];
  }
  /// The `i`-th item counted from the front (pre: i < size()).
  const T& operator[](std::size_t i) const {
    MP3D_ASSERT(i < size());
    return slots_[(head_ + i) & mask_];
  }

  void push_back(T item) {
    if (size() == slots_.size()) {
      grow_to(slots_.empty() ? kMinSlots : 2 * slots_.size());
    }
    slots_[tail_++ & mask_] = std::move(item);
  }

  T pop_front() {
    MP3D_ASSERT(!empty());
    return std::move(slots_[head_++ & mask_]);
  }

  /// Drop every item; the slots stay allocated for reuse.
  void clear() {
    head_ = 0;
    tail_ = 0;
  }

 private:
  static constexpr std::size_t kMinSlots = 4;

  void grow_to(std::size_t slots) {
    std::vector<T> next(slots);
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    head_ = 0;
    tail_ = n;
    mask_ = slots - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;  ///< index of the front item (free-running)
  std::size_t tail_ = 0;  ///< index one past the back item (free-running)
  std::size_t mask_ = 0;  ///< slots_.size() - 1
};

}  // namespace mp3d::sim
