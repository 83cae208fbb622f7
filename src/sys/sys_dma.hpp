// SPDX-License-Identifier: Apache-2.0
// Cluster-to-cluster DMA: one engine per cluster moving bytes between
// global memories through the inter-cluster interconnect.
//
// A descriptor names a linear copy from (src, src_addr) to (dst,
// dst_addr), two global memories, routed over the mesh from src_cluster to
// dst_cluster. Every cycle the owning engine claims bytes for
// its active descriptor from the icn link budgets (capped by the engine's
// own port width); whole words move functionally as bytes are granted,
// and the descriptor retires `hop_latency * hops` cycles after its last
// byte — the same grant-then-latency shape as the intra-cluster
// DmaEngine, with the mesh route standing in for the gmem channel. The
// route alone sets timing, counters and energy; the functional copies
// touch no counter.
//
// Engines are served in a per-cycle rotated order (and the rotation is
// advanced across fast-forward jumps), so no engine permanently wins a
// contended home-cluster port and the schedule is bit-identical with the
// fast path on or off. Tickets are per-engine sequential; retirement is
// reported through an in-order watermark (arch::DmaRetireTracker), which
// the job scheduler polls.
#pragma once

#include <deque>
#include <vector>

#include "arch/dma.hpp"
#include "sys/icn.hpp"
#include "sys/params.hpp"

namespace mp3d::arch {
class GlobalMemory;
}

namespace mp3d::sys {

/// A validated cluster-to-cluster copy request.
struct C2cDescriptor {
  u32 src_cluster = 0;  ///< mesh route: the cluster the bytes leave
  u32 dst_cluster = 0;  ///< mesh route: the cluster the bytes reach
  arch::GlobalMemory* src = nullptr;  ///< memory the words are read from
  arch::GlobalMemory* dst = nullptr;  ///< memory the words are written to
  u32 src_addr = 0;  ///< byte address in `src`'s window
  u32 dst_addr = 0;  ///< byte address in `dst`'s window
  u64 bytes = 0;     ///< positive multiple of 4
  u64 ticket = 0;    ///< per-engine sequential id (assigned at push)
};

class SysDma {
 public:
  SysDma(const SysDmaConfig& cfg, ClusterIcn& icn);

  u32 num_engines() const { return static_cast<u32>(engines_.size()); }
  bool can_accept(u32 engine) const;
  /// Queue a copy on `engine` (pre: can_accept); returns its ticket.
  u64 push(u32 engine, C2cDescriptor descriptor);
  /// In-order retired watermark of `engine`: every descriptor with
  /// ticket <= retired(engine) has completed (data moved, wire drained).
  u64 retired(u32 engine) const { return trackers_[engine].watermark(); }
  u64 issued(u32 engine) const { return trackers_[engine].issued(); }

  bool idle() const;
  u64 backlog_bytes() const;

  /// Account `span` skipped cycles across a fast-forward jump: only the
  /// per-cycle engine-service rotation carries state (pre: the jump lies
  /// before next_event_cycle()).
  void skip_cycles(u64 span) {
    const u32 n = num_engines();
    step_rr_ = n == 0 ? 0 : static_cast<u32>((step_rr_ + span % n) % n);
  }

  /// Advance every engine one cycle, in the rotated service order.
  void step(sim::Cycle now);
  /// Earliest cycle an engine does observable work: `now + 1` while any
  /// engine has bytes to claim, else the first wire-drain completion
  /// (kNever when idle).
  sim::Cycle next_event_cycle(sim::Cycle now) const;
  /// Drop queued and in-flight descriptors and zero the statistics.
  void reset_run_state();
  void add_counters(sim::CounterSet& counters) const;
  /// Progress witness of the System's deadlock watchdog.
  u64 activity() const { return bytes_moved_ + descriptors_completed_; }

 private:
  struct Completion {
    sim::Cycle done_at = 0;
    u64 ticket = 0;
  };
  struct Engine {
    std::deque<C2cDescriptor> queue;
    bool active = false;
    C2cDescriptor current;
    u64 granted_bytes = 0;  ///< icn bytes claimed for `current`
    u64 moved_words = 0;    ///< words functionally moved for `current`
    u64 backlog_bytes = 0;  ///< ungranted bytes across queue + current
    std::deque<Completion> completing;
  };

  void step_engine(u32 e, sim::Cycle now);
  void move_word(const C2cDescriptor& d, u64 word_index);

  SysDmaConfig cfg_;
  ClusterIcn& icn_;
  std::vector<Engine> engines_;
  std::vector<arch::DmaRetireTracker> trackers_;
  u32 step_rr_ = 0;

  u64 bytes_moved_ = 0;
  u64 descriptors_completed_ = 0;
  u64 busy_cycles_ = 0;
};

}  // namespace mp3d::sys
