// SPDX-License-Identifier: Apache-2.0
// Adaptive gmem-share controller: the first dynamic-QoS component. The
// bounded-share arbiter (arch::GmemArbiterConfig) makes the off-chip
// channel fair but static — picking `bulk_min_pct` is a per-workload
// guess. This controller closes the loop at runtime: it watches
// fixed-cycle windows of
//
//   - scalar completion latency (p99 of the window's samples, fed by the
//     driver — the cluster's gmem response path or the standalone soak),
//   - bulk pressure on the channel (GlobalMemory's bulk stall and demand
//     cycle counters),
//
// and actuates GlobalMemory::set_bulk_share between the configured
// floor/ceiling: multiplicative decrease (halve) when scalar p99 blows its
// budget — tail latency is the contract — and additive raise while bulk
// demand is being starved or sustained, classic AIMD so a burst-onset
// latency spike is shed in one or two windows while bulk throughput climbs
// back gradually.
//
// The controller is deterministic (pure function of the observed cycle
// stream), costs one branch per cycle outside window boundaries, and
// exposes `qos.*` counters plus an optional trace track with one instant
// per share change.
#pragma once

#include <vector>

#include "arch/global_mem.hpp"
#include "arch/params.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::qos {

class AdaptiveShareController {
 public:
  /// Attaches to `gmem`, whose configured bulk share (clamped into the
  /// controller's bounds) becomes the initial live share. `config` must
  /// already be validated (ClusterConfig::validate does; standalone users
  /// get the same checks re-applied here).
  AdaptiveShareController(const arch::AdaptiveShareConfig& config,
                          arch::GlobalMemory& gmem);

  /// Record one completed scalar request's queueing latency (cycles from
  /// enqueue to response). The window's p99 is computed from these.
  void observe_scalar_latency(u64 latency_cycles) {
    window_latencies_.push_back(latency_cycles);
  }

  /// Advance one cycle; on window boundaries, decide and actuate. Call
  /// after the cycle's gmem step + bulk claims so the stall/demand
  /// counters cover the full window.
  void step(sim::Cycle now) {
    if (now >= next_window_) {
      on_window(now);
    }
  }

  /// Back to the initial share and a clean first window (between runs on
  /// one cluster). Re-actuates gmem to the initial share.
  void reset();

  u32 share_pct() const { return share_pct_; }
  /// Cycle of the next window decision — an event boundary the cluster's
  /// idle-cycle fast-forward must not jump across.
  sim::Cycle next_window() const { return next_window_; }
  u64 adjustments() const { return raises_ + decays_; }
  u64 raises() const { return raises_; }
  u64 decays() const { return decays_; }
  u64 windows() const { return windows_; }

  /// qos.share_x100 (current share x100), qos.adjustments / raises /
  /// decays / windows, qos.share_avg_x100 (time-weighted average x100).
  void add_counters(sim::CounterSet& counters) const;

  /// Attach the event trace: one instant per share change on `track`
  /// (value = new share in percent), mirroring GlobalMemory::set_trace.
  void set_trace(obs::Trace* trace, u32 track);

 private:
  void on_window(sim::Cycle now);
  void actuate(u32 new_share, sim::Cycle now, bool raise);

  arch::AdaptiveShareConfig cfg_;
  arch::GlobalMemory& gmem_;
  u32 initial_pct_;
  u32 share_pct_;
  sim::Cycle next_window_;
  sim::Cycle last_window_end_ = 0;

  std::vector<u64> window_latencies_;
  u64 last_bulk_stall_ = 0;
  u64 last_bulk_demand_ = 0;

  u64 raises_ = 0;
  u64 decays_ = 0;
  u64 windows_ = 0;
  u64 share_cycles_ = 0;  ///< sum of share_pct x window length over windows

  obs::Trace* trace_ = nullptr;
  u32 track_ = 0;
  u32 ev_share_raise_ = 0;
  u32 ev_share_decay_ = 0;
};

}  // namespace mp3d::qos
