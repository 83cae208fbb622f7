// SPDX-License-Identifier: Apache-2.0
// Cluster configuration: architectural and timing parameters of the MemPool
// many-core cluster (MemPool DATE'21 [9], MemPool-3D DATE'22).
//
// The default configuration is the paper's: 256 Snitch-like cores in 64
// tiles (4 groups x 16 tiles), 16 SPM banks per tile (banking factor 4),
// and a three-level interconnect with 1/3/5-cycle zero-load load latency
// (local tile / same group / remote group).
#pragma once

#include <string>

#include "common/units.hpp"

namespace mp3d::arch {

/// Per-group DMA engine parameters (MemPool's bulk gmem<->SPM path).
struct DmaConfig {
  u32 engines_per_group = 1;   ///< DMA engines instantiated per group
  u32 max_outstanding = 4;     ///< descriptor queue depth per engine
  u32 bytes_per_cycle = 64;    ///< SPM-side port width of one engine
};

/// Bounded-share arbitration of the off-chip channel between the
/// latency-critical scalar/refill FIFO and the DMA engines' bulk claims.
///
/// With `bulk_min_pct == 0` (the default, and the policy every paper figure
/// was produced under) scalar traffic has absolute priority: bulk claims
/// only see the bytes the FIFO left over, so a scalar-saturated channel
/// starves bulk DMA indefinitely. A nonzero share guarantees bulk DMA
/// `bulk_min_pct` percent of the per-cycle byte budget *while bulk demand
/// exists*: the guarantee accrues as credit each cycle, the FIFO is served
/// from the remainder, and credit bulk could not spend (engine port
/// narrower than the reserve, demand arriving mid-burst) carries over as a
/// deficit capped at `deficit_cap_cycles` cycles' worth — so scalar
/// latency stays bounded while bulk is guaranteed forward progress.
struct GmemArbiterConfig {
  u32 bulk_min_pct = 0;        ///< guaranteed bulk share of the channel, percent
  u32 deficit_cap_cycles = 8;  ///< deficit carry-over cap, in cycles of guarantee
};

/// Adaptive gmem-share controller (qos::AdaptiveShareController): closes
/// the loop on the bounded-share arbiter by observing fixed-cycle windows
/// of scalar completion latency and bulk stall/demand pressure, then
/// raising or decaying GlobalMemory's live bulk share between
/// `min_pct`..`max_pct`. Off by default — the static GmemArbiterConfig
/// policy (and every paper figure) is untouched unless `enabled` is set.
///
/// Policy per window: if the window's scalar p99 exceeds `p99_budget`
/// the share is halved (multiplicative decrease, floored at `min_pct`);
/// otherwise, if bulk pressure is present — stall cycles above
/// `raise_stall_pct` percent of the window, or bulk demand in at least
/// `raise_demand_pct` percent of it — the share is raised by `step_pct`
/// (capped at `max_pct`).
struct AdaptiveShareConfig {
  bool enabled = false;
  u32 min_pct = 0;        ///< decay floor of the live bulk share, percent
  u32 max_pct = 60;       ///< raise ceiling, percent (<= 90 like the arbiter)
  u32 step_pct = 5;       ///< additive raise step, percent
  u32 window = 256;       ///< decision window, cycles (>= 16)
  u32 p99_budget = 48;    ///< scalar p99 decay threshold, cycles
  u32 raise_stall_pct = 10;   ///< bulk stall cycles per window that trigger a raise, %
  u32 raise_demand_pct = 50;  ///< bulk demand cycles per window that trigger a raise, %
};

/// Host-side self-profiling (src/prof): where does the *simulator's* wall
/// clock go? When enabled, every `stride`-th call of Cluster::step is
/// timed phase by phase (gmem, icache refills, DMA, QoS, interconnect,
/// banks, ctrl, cores, telemetry) with monotonic-clock reads at the phase
/// boundaries, and the per-phase nanoseconds are extrapolated by the
/// stride into a component breakdown of step time. Off by default; the
/// disabled path costs one compare against a deadline parked at "never"
/// plus dead null checks, so simulation counters and results are
/// bit-identical either way (profiling observes the host, never the sim).
struct ProfilingConfig {
  /// Sample one out of every `stride` simulated cycles; 0 = profiling off.
  /// Larger strides cost less (default 64 keeps enabled overhead in the
  /// low single-digit percent) at coarser attribution granularity.
  u32 stride = 0;
  /// Mirror the sampled per-phase host nanoseconds onto the event trace
  /// as `host.*` counter tracks (needs TelemetryConfig::trace; no-op
  /// otherwise), so one Perfetto file shows simulated events and host
  /// cost side by side.
  bool trace_counters = false;

  bool enabled() const { return stride > 0; }
};

/// Simulation telemetry (src/obs). Both modes are off by default and the
/// simulator pays nothing for them when disabled: the per-cycle hot path
/// only ever compares the cycle against a sample deadline that is parked
/// at "never", and trace emission sits behind null pointer checks.
struct TelemetryConfig {
  /// Cycles per counter-sampling window; 0 disables windowed sampling.
  /// Each window snapshots the full counter delta plus derived gauges.
  u32 sample_window = 0;
  /// Record structured begin/end/instant events (DMA descriptor lifecycle,
  /// gmem arbiter decisions, core wfi spans, kernel phase markers).
  bool trace = false;

  bool enabled() const { return sample_window > 0 || trace; }
};

/// Size of the control-peripheral address window at ClusterConfig::ctrl_base.
inline constexpr u32 kCtrlWindowBytes = 0x1000;

struct ClusterConfig {
  // ----- topology ---------------------------------------------------------
  u32 num_groups = 4;        ///< groups per cluster (2x2 physical arrangement)
  u32 tiles_per_group = 16;  ///< tiles per group (4x4 physical arrangement)
  u32 cores_per_tile = 4;
  u32 banks_per_tile = 16;

  // ----- memory sizes -----------------------------------------------------
  u64 spm_capacity = MiB(1);      ///< cluster-wide L1 SPM capacity
  u64 seq_bytes_per_tile = KiB(4);  ///< tile-local sequential region (stacks)
  u64 gmem_size = MiB(64);        ///< modeled off-chip memory window

  // ----- address map ------------------------------------------------------
  u32 spm_base = 0x0000'0000;
  u32 ctrl_base = 0x4000'0000;  ///< window of kCtrlWindowBytes
  u32 gmem_base = 0x8000'0000;

  // ----- interconnect timing ---------------------------------------------
  // One-way pipeline latency of each network (register stages traversed by
  // a request or response). Together with the single-cycle bank access this
  // reproduces the paper's 1/3/5-cycle zero-load latency hierarchy.
  u32 local_net_pipe = 1;   ///< same-group remote tile (local interconnect)
  u32 global_net_pipe = 2;  ///< north/northeast/east inter-group networks
  u32 port_queue_depth = 4; ///< per-tile per-network port queue entries

  // ----- core timing ------------------------------------------------------
  u32 lsu_max_outstanding = 8;  ///< scoreboarded in-flight memory operations
  u32 taken_branch_penalty = 2;
  u32 jump_penalty = 1;
  u32 div_latency = 20;
  u32 mul_latency = 1;

  // ----- instruction cache -------------------------------------------------
  bool perfect_icache = false;
  u64 icache_size = KiB(2);   ///< per tile, shared by its cores
  u32 icache_line = 32;       ///< bytes

  // ----- global (off-chip) memory -----------------------------------------
  u32 gmem_bytes_per_cycle = 16;  ///< paper sweeps 4..64 B/cycle
  u32 gmem_latency = 4;           ///< idealized, as in the paper's model
  GmemArbiterConfig gmem_arbiter; ///< scalar-vs-bulk channel arbitration
  AdaptiveShareConfig qos;        ///< dynamic bulk-share controller (off by default)

  // ----- per-group DMA engines ---------------------------------------------
  DmaConfig dma;

  // ----- telemetry ---------------------------------------------------------
  TelemetryConfig telemetry;

  // ----- host-side self-profiling ------------------------------------------
  ProfilingConfig profiling;

  // ----- simulation speed ---------------------------------------------------
  /// Idle-cycle fast-forward: when every core sleeps in wfi and all pending
  /// work has a computable ready cycle, jump the clock to the next event
  /// instead of ticking. Counters, markers, telemetry, and traces are
  /// bit-identical either way (cycles are charged as if ticked), so this is
  /// on by default; the env var MP3D_FAST_FORWARD=0/1 overrides at Cluster
  /// construction for A/B runs and CI.
  bool fast_forward = true;

  // ----- derived ----------------------------------------------------------
  u32 num_tiles() const { return num_groups * tiles_per_group; }
  u32 num_cores() const { return num_tiles() * cores_per_tile; }
  u32 num_banks() const { return num_tiles() * banks_per_tile; }
  u64 bank_bytes() const { return spm_capacity / num_banks(); }
  u32 bank_words() const { return static_cast<u32>(bank_bytes() / 4); }
  u64 seq_region_bytes() const { return seq_bytes_per_tile * num_tiles(); }
  /// Bytes of the interleaved SPM region (after the sequential region).
  u64 interleaved_bytes() const { return spm_capacity - seq_region_bytes(); }

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;

  std::string to_string() const;

  // ----- presets ----------------------------------------------------------
  /// The paper's full MemPool cluster with the given SPM capacity
  /// (1/2/4/8 MiB in the paper).
  static ClusterConfig mempool(u64 spm_capacity = MiB(1));
  /// A scaled-down cluster (1 group, 4 tiles, 16 cores) for fast tests.
  static ClusterConfig mini(u64 spm_capacity = KiB(64));
  /// Single tile, 4 cores: smallest functional configuration.
  static ClusterConfig tiny();
};

}  // namespace mp3d::arch
