// SPDX-License-Identifier: Apache-2.0
// Inter-cluster interconnect: the system-level fabric the cluster-to-
// cluster DMA moves bytes through.
//
// Clusters sit on a 2D mesh (ceil-sqrt columns, XY routing). The model is
// transfer-level, matching GlobalMemory's channel style rather than the
// intra-cluster flit-level NoC: every cluster owns one egress and one
// ingress port with a per-cycle byte budget, and a claim for (src -> dst)
// is granted min(egress[src], ingress[dst], asked) bytes. Budgets are
// stamped per cycle on first claim, so the fabric is passive between
// claims (it has no events of its own) and needs no catch-up on a
// fast-forward jump. Hop distance only adds latency (charged by the DMA
// engine on completion) and energy (`sys.icn.byte_hops` x pj_per_byte_hop,
// costed by sys::account_system); a local src == dst claim models the
// shard port with zero hops.
#pragma once

#include <vector>

#include "sim/counters.hpp"
#include "sim/types.hpp"
#include "sys/params.hpp"

namespace mp3d::sys {

class ClusterIcn {
 public:
  ClusterIcn(const IcnConfig& cfg, u32 num_clusters);

  u32 num_clusters() const { return num_clusters_; }
  const IcnConfig& config() const { return cfg_; }

  /// XY mesh distance between two clusters (0 when src == dst).
  u32 hops(u32 src, u32 dst) const;
  /// One-way wire latency of the route in cycles.
  u32 route_latency(u32 src, u32 dst) const { return cfg_.hop_latency * hops(src, dst); }

  /// Grant up to `bytes` of cycle `now`'s remaining link budget for a
  /// src -> dst transfer (both ports are debited; src == dst debits the
  /// cluster's ports once each). Returns the granted byte count.
  u32 claim(u32 src, u32 dst, u32 bytes, sim::Cycle now);

  u64 bytes_moved() const { return bytes_moved_; }

  void reset_run_state();
  void add_counters(sim::CounterSet& counters) const;

 private:
  void refresh_budgets(sim::Cycle now);

  IcnConfig cfg_;
  u32 num_clusters_;
  u32 cols_;
  sim::Cycle stamp_ = sim::kNever;  ///< cycle the budgets were refreshed for
  std::vector<u32> egress_left_;
  std::vector<u32> ingress_left_;

  u64 bytes_moved_ = 0;
  u64 byte_hops_ = 0;       ///< sum over grants of bytes x hops (energy witness)
  u64 local_bytes_ = 0;     ///< src == dst grants (the home cluster's own staging)
  u64 starved_claims_ = 0;  ///< nonzero asks granted 0 bytes (port contention)
};

}  // namespace mp3d::sys
