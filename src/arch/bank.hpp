// SPDX-License-Identifier: Apache-2.0
// One SPM SRAM bank: single-ported, one access per cycle, FIFO service of
// queued requests. The bank is the serialization point for atomics (AMOs
// and LR/SC execute here).
//
// The bank holds timing state only: its request queue and its counters.
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

/// The transaction record of one core LSU slot whose request targets the
/// SPM. The Cluster keeps one per slot, indexed by the slot's handle
/// (`core << shift | tag`), and writes it once, at issue, with the decoded
/// route. The bank queues and both NoC directions carry only the handle,
/// and the bank leaves the response word in `rdata`.
struct BankRequest {
  u32 word = 0;   ///< SPM word index: (addr - spm_base) / 4
  u32 wdata = 0;  ///< store / AMO operand
  u32 rdata = 0;  ///< response word, written when the bank serves it
  u32 bank = 0;   ///< global bank index (tile * banks_per_tile + bank in tile)
  u16 core = 0;   ///< issuing core
  u16 tile = 0;   ///< issuing core's tile, where the response goes
  isa::Op op = isa::Op::kInvalid;
  u8 lane = 0;  ///< byte offset within the word (addr & 3)
  u8 net = 0;   ///< network between the core's and the bank's tile (remote only)
};

class SpmBank {
 public:
  /// Queue the request with handle `handle`; it reaches the bank at `ready_at`.
  void push(sim::Cycle ready_at, u32 handle) { queue_.push_back(Entry{ready_at, handle}); }

  bool has_ready(sim::Cycle now) const {
    return !queue_.empty() && queue_.front().ready_at <= now;
  }
  /// Handle of the front request (pre: has_ready).
  u32 front() const { return queue_.front().handle; }
  bool busy() const { return !queue_.empty(); }

  /// Serve the front request (pre: has_ready(now)), whose record is
  /// `request`: execute it on its word of `spm` (the cluster's SPM array)
  /// against the SPM's `reservations`, and leave the response word in
  /// `request.rdata` (stores answer too). Also accumulates conflict
  /// statistics: cycles a request waited beyond its zero-load arrival time.
  void serve(sim::Cycle now, BankRequest& request, std::span<u32> spm,
             Reservations& reservations);

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
  /// A queued request: the cycle it reaches the bank and its handle.
  struct Entry {
    sim::Cycle ready_at;
    u32 handle;
  };

  sim::RingFifo<Entry> queue_;
  u64 accesses_ = 0;
  u64 reads_ = 0;
  u64 writes_ = 0;
  u64 conflicts_ = 0;
  u64 conflict_wait_cycles_ = 0;
};

}  // namespace mp3d::arch
