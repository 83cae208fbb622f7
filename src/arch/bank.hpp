// SPDX-License-Identifier: Apache-2.0
// One SPM SRAM bank: single-ported, one access per cycle, FIFO service of
// queued requests. The bank is the serialization point for atomics (AMOs
// execute here) and holds LR/SC reservations on its words.
//
// The bank holds timing state only: its request queue, its reservations
// and its counters. The SPM contents are one address-ordered word array
// owned by the Cluster (host backdoor and DMA port index it directly), and
// serve() executes the request on the word it addresses there.
#pragma once

#include <optional>
#include <vector>

#include "arch/mem_types.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/types.hpp"

namespace mp3d::arch {

/// A request routed to a bank. The address is decoded once, at issue: the
/// request carries its cluster-wide bank index and the index of the word
/// it addresses in the SPM array.
struct BankRequest {
  MemRequest req;
  u32 bank = 0;  ///< global bank index (tile * banks_per_tile + bank in tile)
  u32 word = 0;  ///< (addr - spm_base) / 4
};

class SpmBank {
 public:
  void push(BankRequest request) { queue_.push_back(std::move(request)); }

  bool has_ready(sim::Cycle now) const {
    return !queue_.empty() && queue_.front().req.ready_at <= now;
  }

  /// Front request if one is ready to be served this cycle (routing peek).
  const BankRequest* peek(sim::Cycle now) const {
    return has_ready(now) ? &queue_.front() : nullptr;
  }
  bool busy() const { return !queue_.empty(); }

  /// Serve at most one request, executing it on its word of `spm` (the
  /// cluster's SPM array); returns the response (stores ack too). Also
  /// accumulates conflict statistics: cycles a request waited beyond its
  /// zero-load arrival time.
  std::optional<MemResponse> serve(sim::Cycle now, std::vector<u32>& spm);

  u64 accesses() const { return accesses_; }
  /// Array-read / array-write activations (the SRAM events energy models
  /// account for). A load is one read, a store one write; AMOs and lr/sc
  /// activate the array twice (read-modify-write), so reads + writes can
  /// exceed accesses.
  u64 reads() const { return reads_; }
  u64 writes() const { return writes_; }
  u64 conflict_wait_cycles() const { return conflict_wait_cycles_; }
  u64 conflicts() const { return conflicts_; }

  /// Drop queued requests and reservations and zero the statistics. Called
  /// between program loads on one cluster.
  void reset_run_state() {
    queue_.clear();
    reservations_.clear();
    accesses_ = 0;
    reads_ = 0;
    writes_ = 0;
    conflicts_ = 0;
    conflict_wait_cycles_ = 0;
  }

 private:
  u32 execute(const BankRequest& request, u32& word);

  sim::RingFifo<BankRequest> queue_;
  // LR/SC reservations: (word index, core) pairs; invalidated by any
  // intervening write from another core.
  std::vector<std::pair<u32, u16>> reservations_;
  u64 accesses_ = 0;
  u64 reads_ = 0;
  u64 writes_ = 0;
  u64 conflicts_ = 0;
  u64 conflict_wait_cycles_ = 0;
};

}  // namespace mp3d::arch
