// SPDX-License-Identifier: Apache-2.0
// Configuration of the hierarchical multi-cluster system: N identical
// Clusters, each owning one shard of the partitioned global memory,
// connected by an inter-cluster interconnect with its own hop latencies
// and energies, plus per-cluster cluster-to-cluster DMA engines that time
// each job's staging between the home cluster and its worker, and a job
// scheduler. Mirrors the MemPool line's scaling recipe: keep the cluster,
// add a hierarchy level.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

#include "arch/params.hpp"

namespace mp3d::sys {

/// Inter-cluster interconnect: clusters sit on a 2D mesh (ceil-sqrt
/// columns, XY routing); every cluster owns one egress and one ingress
/// port of `link_bytes_per_cycle`, and a byte traverses
/// `hop_latency * hops` cycles of wire after its last byte is granted.
struct IcnConfig {
  u32 link_bytes_per_cycle = 64;  ///< per cluster port, per direction
  u32 hop_latency = 8;            ///< cycles per mesh hop
  /// Inter-cluster wire energy per byte per hop [pJ] — long on-package
  /// links, several times the intra-cluster global-net hop cost.
  double pj_per_byte_hop = 1.5;

  void validate() const {
    if (link_bytes_per_cycle == 0 || link_bytes_per_cycle % 4 != 0) {
      throw std::invalid_argument(
          "IcnConfig::link_bytes_per_cycle must be a positive multiple of 4");
    }
    if (pj_per_byte_hop < 0.0) {
      throw std::invalid_argument("IcnConfig::pj_per_byte_hop must be >= 0");
    }
  }
};

/// Cluster-to-cluster DMA: one engine per cluster, each timing one
/// transfer at a time under an SPM-port-style per-cycle byte cap (the
/// engine's claim is additionally limited by the icn link budgets).
struct SysDmaConfig {
  u32 port_bytes_per_cycle = 64;

  void validate() const {
    if (port_bytes_per_cycle == 0 || port_bytes_per_cycle % 4 != 0) {
      throw std::invalid_argument(
          "SysDmaConfig::port_bytes_per_cycle must be a positive multiple of 4");
    }
  }
};

/// Job-to-cluster assignment policy of the scheduler.
enum class SchedPolicy {
  kRoundRobin,   ///< job i pinned to cluster i mod N (static partitioning)
  kLeastLoaded,  ///< global FIFO: an idle cluster takes the front job
};

inline const char* to_string(SchedPolicy policy) {
  return policy == SchedPolicy::kRoundRobin ? "round_robin" : "least_loaded";
}

struct SystemConfig {
  u32 num_clusters = 1;
  /// Replicated per-cluster configuration (each cluster's gmem window is
  /// its shard of the system's partitioned global memory).
  arch::ClusterConfig cluster = arch::ClusterConfig::mempool();
  IcnConfig icn;
  SysDmaConfig sys_dma;
  SchedPolicy policy = SchedPolicy::kRoundRobin;
  /// The cluster a job's staged inputs come from and its staged outputs
  /// go back to: the far end of every staging route.
  u32 home_cluster = 0;

  u32 mesh_cols() const {
    return static_cast<u32>(
        std::ceil(std::sqrt(static_cast<double>(num_clusters))));
  }

  void validate() const {
    if (num_clusters == 0 || num_clusters > 64) {
      throw std::invalid_argument("SystemConfig::num_clusters must be 1..64");
    }
    if (home_cluster >= num_clusters) {
      throw std::invalid_argument("SystemConfig::home_cluster out of range");
    }
    cluster.validate();
    icn.validate();
    sys_dma.validate();
  }

  std::string to_string() const;
};

}  // namespace mp3d::sys
