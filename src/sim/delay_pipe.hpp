// SPDX-License-Identifier: Apache-2.0
// DelayPipe: a fixed-latency, unbounded-throughput pipeline register chain.
// Items pushed at cycle c become visible at cycle c + latency. This models
// the register stages of MemPool's hierarchical interconnect: flits do not
// interfere inside the pipe; contention is modeled at the endpoints (the
// destination tile's ingress port, the bank). A pipe whose front is held
// back by a busy ingress port keeps accepting flits behind it, so it can
// hold more than `latency + 1` items; its ring then grows.
//
// BoundedQueue: a ready/valid FIFO with finite capacity, where
// back-pressure matters (the interconnect's per-port egress queues).
//
// Both keep their items in a RingFifo sized at construction for the usual
// depth (latency + 1 for a pipe, the capacity for a queue), so the steady
// state allocates nothing. The ring asserts that front() and pop() find
// an item.
#pragma once

#include <utility>

#include "common/assert.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/types.hpp"

namespace mp3d::sim {

template <typename T>
class DelayPipe {
 public:
  explicit DelayPipe(u32 latency) : latency_(latency), entries_(std::size_t{latency} + 1) {}

  u32 latency() const { return latency_; }

  void push(Cycle now, T item) {
    const Cycle ready_at = now + latency_;
    // Ready cycles are monotone because `now` is monotone.
    MP3D_ASSERT(entries_.empty() || entries_.back().ready_at <= ready_at);
    entries_.push_back(Entry{ready_at, std::move(item)});
  }

  /// True if an item is deliverable at cycle `now`.
  bool ready(Cycle now) const {
    return !entries_.empty() && entries_.front().ready_at <= now;
  }

  const T& front() const { return entries_.front().item; }

  /// Ready cycle of the oldest in-flight item (pre: !empty()). Entries are
  /// monotone, so this is the pipe's next event cycle — it may lie in the
  /// past when delivery was held up by endpoint back-pressure.
  Cycle front_ready_at() const { return entries_.front().ready_at; }

  T pop(Cycle now) {
    MP3D_ASSERT(ready(now));
    return entries_.pop_front().item;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    Cycle ready_at = 0;
    T item{};
  };
  u32 latency_;
  RingFifo<Entry> entries_;
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity), items_(capacity) {
    MP3D_ASSERT(capacity_ > 0);
  }

  bool full() const { return items_.size() >= capacity_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

  bool try_push(T item) {
    if (full()) {
      return false;
    }
    items_.push_back(std::move(item));
    return true;
  }

  T& front() { return items_.front(); }
  const T& front() const { return items_.front(); }

  T pop() { return items_.pop_front(); }

  void clear() { items_.clear(); }

 private:
  std::size_t capacity_;
  RingFifo<T> items_;
};

}  // namespace mp3d::sim
