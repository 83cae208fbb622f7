// SPDX-License-Identifier: Apache-2.0
#include "sys/scheduler.hpp"

#include "common/assert.hpp"

namespace mp3d::sys {

JobScheduler::JobScheduler(SchedPolicy policy, u32 num_clusters)
    : policy_(policy), num_clusters_(num_clusters) {
  MP3D_CHECK(num_clusters_ >= 1, "JobScheduler needs at least one cluster");
  rr_cursor_.resize(num_clusters_);
}

void JobScheduler::reset(std::size_t num_jobs) {
  num_jobs_ = num_jobs;
  fifo_cursor_ = 0;
  for (u32 k = 0; k < num_clusters_; ++k) {
    rr_cursor_[k] = k;  // cluster k's first pinned job is job k
  }
}

std::optional<std::size_t> JobScheduler::next_job(u32 cluster) {
  MP3D_CHECK(cluster < num_clusters_, "scheduler cluster id out of range");
  switch (policy_) {
    case SchedPolicy::kRoundRobin: {
      const std::size_t job = rr_cursor_[cluster];
      if (job >= num_jobs_) {
        return std::nullopt;
      }
      rr_cursor_[cluster] = job + num_clusters_;
      return job;
    }
    case SchedPolicy::kLeastLoaded: {
      if (fifo_cursor_ >= num_jobs_) {
        return std::nullopt;
      }
      return fifo_cursor_++;
    }
  }
  return std::nullopt;
}

}  // namespace mp3d::sys
