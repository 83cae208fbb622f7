// SPDX-License-Identifier: Apache-2.0
// One SPM SRAM bank: single-ported, one access per cycle, FIFO service of
// queued requests. The bank is the serialization point for atomics (AMOs
// and LR/SC execute here).
//
// The bank holds timing state only: its request queue (each entry the
// request itself and its handle) and its counters.
// The SPM contents are one address-ordered word array owned by the Cluster
// (host backdoor and DMA port index it directly), beside the SPM's one
// LR/SC reservation table; serve() executes the request on the word it
// addresses there with execute_word_op (arch/word_op.hpp).
#pragma once

#include <span>

#include "arch/mem_types.hpp"
#include "arch/word_op.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/types.hpp"

namespace mp3d::arch {

class SpmBank {
 public:
  /// A queued request: the cycle it reaches the bank, its handle and the
  /// request.
  struct Entry {
    sim::Cycle ready_at;
    u32 handle;
    BankRequest request;
  };

  /// Queue `request` with handle `handle`; it reaches the bank at `ready_at`.
  void push(sim::Cycle ready_at, u32 handle, const BankRequest& request) {
    queue_.push_back(Entry{ready_at, handle, request});
  }

  bool has_ready(sim::Cycle now) const {
    return !queue_.empty() && queue_.front().ready_at <= now;
  }
  /// The front request (pre: has_ready).
  const BankRequest& front() const { return queue_.front().request; }
  bool busy() const { return !queue_.empty(); }

  /// Serve the front request (pre: has_ready(now)): execute it on its word
  /// of `spm` (the cluster's SPM array) against the SPM's `reservations`,
  /// for the core `handle >> handle_shift`, and return its entry with the
  /// response word in `request.data` (stores answer too). Also accumulates
  /// conflict statistics: cycles a request waited beyond its zero-load
  /// arrival time.
  Entry serve(sim::Cycle now, std::span<u32> spm, Reservations& reservations,
              u32 handle_shift);

  u64 accesses() const { return accesses_; }
  /// Array-read / array-write activations (the SRAM events energy models
  /// account for). A load is one read, a store one write; AMOs and lr/sc
  /// activate the array twice (read-modify-write), so reads + writes can
  /// exceed accesses.
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }
  u64 conflict_wait_cycles() const { return conflict_wait_cycles_; }
  u64 conflicts() const { return conflicts_; }

  /// Drop queued requests and zero the statistics. Called between program
  /// loads on one cluster.
  void reset_run_state() {
    queue_.clear();
    accesses_ = 0;
    reads_ = 0;
    writes_ = 0;
    conflicts_ = 0;
    conflict_wait_cycles_ = 0;
  }

 private:
  sim::RingFifo<Entry> queue_;
  u64 accesses_ = 0;
  u64 reads_ = 0;
  u64 writes_ = 0;
  u64 conflicts_ = 0;
  u64 conflict_wait_cycles_ = 0;
};

}  // namespace mp3d::arch
