// SPDX-License-Identifier: Apache-2.0
// Job-to-cluster assignment policies of the system scheduler.
//
//   * round_robin:  job i is pinned to cluster i mod N (static
//     partitioning — a job waits for its designated cluster even when
//     another is free; assignment is independent of timing).
//   * least_loaded: one global FIFO; whenever a cluster goes idle it takes
//     the front job. Free clusters are offered work in ascending id each
//     cycle, so the assignment is deterministic while still adapting to
//     job-length skew.
//
// Both policies are pure functions of (policy, N, job order): a sweep's
// CSV bytes cannot depend on host timing.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sys/params.hpp"

namespace mp3d::sys {

class JobScheduler {
 public:
  JobScheduler(SchedPolicy policy, u32 num_clusters);

  /// Start a fresh run over `num_jobs` jobs (indices 0..num_jobs-1).
  void reset(std::size_t num_jobs);

  /// The next job index for newly idle `cluster`, or nullopt when no job
  /// is available for it. The returned job is consumed.
  std::optional<std::size_t> next_job(u32 cluster);
  /// Whether next_job(cluster) would hand out a job (nothing is consumed).
  bool has_job(u32 cluster) const {
    return (policy_ == SchedPolicy::kRoundRobin ? rr_cursor_[cluster] : fifo_cursor_) <
           num_jobs_;
  }

 private:
  SchedPolicy policy_;
  u32 num_clusters_;
  std::size_t num_jobs_ = 0;
  std::size_t fifo_cursor_ = 0;           ///< kLeastLoaded: global FIFO front
  std::vector<std::size_t> rr_cursor_;    ///< kRoundRobin: per-cluster next job
};

}  // namespace mp3d::sys
