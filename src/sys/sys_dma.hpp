// SPDX-License-Identifier: Apache-2.0
// Cluster-to-cluster DMA: one engine per cluster timing transfers through
// the inter-cluster interconnect.
//
// A descriptor names a transfer of `bytes` over the mesh route from
// src_cluster to dst_cluster. Every cycle the owning engine claims bytes
// for it from the icn link budgets (capped by the engine's own port
// width), and the transfer retires `hop_latency * hops` cycles after its
// last byte — the same grant-then-latency shape as the intra-cluster
// DmaEngine, with the mesh route standing in for the gmem channel. The
// route alone sets timing, counters and energy. A transfer moves no
// words: a System's job finds its staged inputs in place (its init hook
// wrote them on its own cluster), so staging only times and costs the
// move.
//
// An engine holds one transfer at a time: a System's cluster stages in,
// runs and stages out one step after another, so pushing onto an engine
// that still grants or drains a transfer is an error. Engines are served
// in a per-cycle rotated order (and the rotation is advanced across
// fast-forward jumps), so no engine permanently wins a contended
// home-cluster port and the schedule is bit-identical with the fast path
// on or off. Tickets are per-engine sequential; the job scheduler polls
// each engine's retired ticket.
#pragma once

#include <vector>

#include "sys/icn.hpp"
#include "sys/params.hpp"

namespace mp3d::sys {

/// A validated cluster-to-cluster transfer: its mesh route and size.
struct C2cDescriptor {
  u32 src_cluster = 0;  ///< mesh route: the cluster the bytes leave
  u32 dst_cluster = 0;  ///< mesh route: the cluster the bytes reach
  u64 bytes = 0;        ///< positive multiple of 4
  u64 ticket = 0;       ///< per-engine sequential id (assigned at push)
};

class SysDma {
 public:
  SysDma(const SysDmaConfig& cfg, ClusterIcn& icn);

  u32 num_engines() const { return static_cast<u32>(engines_.size()); }
  /// Start a transfer on `engine`; returns its ticket. Throws while the
  /// engine still grants or drains an earlier one.
  u64 push(u32 engine, C2cDescriptor descriptor);
  /// Every transfer with ticket <= retired(engine) has completed (its
  /// bytes granted, its wire drained).
  u64 retired(u32 engine) const { return engines_[engine].retired; }
  u64 issued(u32 engine) const { return engines_[engine].issued; }

  bool idle() const;

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
  /// Drop in-flight transfers and zero the tickets and statistics.
  void reset_run_state();
  void add_counters(sim::CounterSet& counters) const;
  /// Progress witness of the System's deadlock watchdog.
  u64 activity() const { return bytes_moved_ + descriptors_completed_; }

 private:
  struct Engine {
    C2cDescriptor current;  ///< the transfer, while busy()
    u64 granted_bytes = 0;  ///< icn bytes claimed for `current`
    /// The cycle `current`'s wire drains: kNever until its last byte is
    /// granted.
    sim::Cycle done_at = sim::kNever;
    u64 issued = 0;   ///< tickets handed out
    u64 retired = 0;  ///< tickets completed

    bool busy() const { return retired != issued; }
    /// Still claiming link bytes (once all are granted, a busy engine
    /// drains its wire).
    bool granting() const { return busy() && granted_bytes < current.bytes; }
  };

  void step_engine(Engine& engine, sim::Cycle now);

  SysDmaConfig cfg_;
  ClusterIcn& icn_;
  std::vector<Engine> engines_;
  u32 step_rr_ = 0;

  u64 bytes_moved_ = 0;
  u64 descriptors_completed_ = 0;
  u64 busy_cycles_ = 0;
};

}  // namespace mp3d::sys
