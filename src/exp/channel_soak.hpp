// SPDX-License-Identifier: Apache-2.0
// Standalone-channel soak: tenants driven cycle by cycle against one
// GlobalMemory with no cluster around it. This one loop serves
// gmem_arbiter's soak families, every gmem_qos scenario and
// telemetry_overhead's soaks.
//
// The scalar tenant is a word stream offered at `burst_load_pct` of the
// channel's byte rate for the first kSoakBurstCycles of every
// kSoakBurstPeriod cycles and at `quiet_load_pct` otherwise; equal loads
// make a constant stream. Each bulk tenant streams at its own offered
// rate, so one tenant at 100 % never runs short of bytes to claim.
#pragma once

#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "common/units.hpp"

namespace mp3d::obs {
class Telemetry;
}

namespace mp3d::exp {

/// Fixed latency of the soaked channel, in cycles.
inline constexpr u32 kSoakLatency = 4;
/// Cycles per burst + quiet period of the scalar tenant.
inline constexpr u32 kSoakBurstPeriod = 4096;
/// Leading cycles of each period offered at the burst load.
inline constexpr u32 kSoakBurstCycles = 512;

struct ChannelSoakParams {
  u32 bytes_per_cycle = 4;
  /// Offered scalar load in percent of the channel's byte rate, during and
  /// between bursts. Above 100 a backlog builds and drains into the quiet
  /// phase (the latency tail under test).
  u32 burst_load_pct = 180;
  u32 quiet_load_pct = 10;
  /// Streaming bulk tenants, one offered rate each (percent of channel).
  /// An aggregate above 100 keeps bulk demand from drying up.
  std::vector<u32> bulk_rates_pct{90, 70};
  /// Static policy: the fixed share. Adaptive policy: the initial share
  /// (clamped into the controller's bounds).
  u32 bulk_min_pct = 0;
  /// When `qos.enabled`, run the AdaptiveShareController against the
  /// channel instead of holding `bulk_min_pct` fixed.
  arch::AdaptiveShareConfig qos;
  u64 cycles = 32768;  ///< keep a multiple of kSoakBurstPeriod (ends drained)
  /// Telemetry to record; obs::effective_config decides what applies.
  arch::TelemetryConfig telemetry;
};

struct ChannelSoakResult {
  u64 scalar_completed = 0;    ///< scalar responses received
  u64 scalar_backlog_end = 0;  ///< scalar requests still queued at the end
  u64 scalar_bytes = 0;
  u64 bulk_bytes = 0;
  u64 bulk_stall_cycles = 0;
  double scalar_p50 = 0.0;    ///< enqueue-to-response latency [cycles]
  double scalar_p99 = 0.0;
  double bulk_share = 0.0;    ///< bulk bytes / (cycles x channel rate)
  double channel_util = 0.0;  ///< all bytes / (cycles x channel rate)
  double share_avg_pct = 0.0; ///< cycle-weighted average live share
  u64 adjustments = 0;        ///< controller share changes (0 for static)
  /// Collected telemetry (null when none applies). Windows carry the gmem
  /// (and controller) counter deltas plus per-window scalar latency
  /// p50/p99, queue depth and live share gauges.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Run the soak. Deterministic (pure integer state).
ChannelSoakResult run_channel_soak(const ChannelSoakParams& params);

/// The constant-load case gmem_arbiter's soaks run: `load_pct` offered in
/// and between bursts against one bulk tenant offered the whole channel,
/// which never runs short of bytes to claim.
ChannelSoakParams constant_load_soak(u32 bytes_per_cycle, u32 bulk_min_pct,
                                     u32 load_pct, u64 cycles);

// ---- the channel axes both gmem suites sweep (registration and gates) ----
std::vector<u64> gmem_shares(bool smoke);  ///< bulk_min_pct values
std::vector<u64> gmem_bws(bool smoke);     ///< channel B/cycle

}  // namespace mp3d::exp
