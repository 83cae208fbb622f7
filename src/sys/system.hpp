// SPDX-License-Identifier: Apache-2.0
// The hierarchical multi-cluster System: N identical Clusters, each owning
// one shard of the partitioned global memory, joined by the inter-cluster
// interconnect (ClusterIcn) and cluster-to-cluster DMA (SysDma).
//
// System::run_jobs shards independent jobs across the clusters:
//
//   assign    the scheduler hands a job to an idle cluster; the kernel's
//             program is loaded and its init hook runs (exactly the bare
//             run_kernel recipe);
//   stage in  when the job declares an input region, its bytes are homed
//             on the home cluster's shard and DMA'd to the worker across
//             the mesh — the cluster stays frozen until the copy retires;
//   run       the cluster steps every system cycle (its local clock is the
//             system clock minus the cycle its program started);
//   stage out when the job declares an output region, the worker's result
//             is DMA'd back to the home shard before the cluster is
//             considered idle again.
//
// The System is a sim::drive model, exactly like a bare Cluster: step()
// runs dispatch, the system DMA, the staging transitions and every running
// cluster in that order; the wake oracle is the system DMA's next event
// plus every running cluster's next_wake on the system clock; the horizon
// adds each running job's cycle cap to the clusters' own boundaries. With
// the same loop and watchdog, a single-cluster System run is bit-identical
// to a bare Cluster::run: same RunResult, same counter names, same
// timeline and trace bytes.
//
// Counter namespacing: at N == 1 the job's counters merge into
// SystemResult::counters unprefixed (bare-cluster names); at N > 1 each
// job's counters are prefixed "c<k>." (additive across jobs that shared a
// cluster) and the unprefixed names are the system-level sys.* counters
// plus "cycles". Per-cluster telemetry deposits are labelled ".c<k>" at
// N > 1, giving the merged Perfetto export one pseudo-process per cluster.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/cluster.hpp"
#include "kernels/kernel.hpp"
#include "sim/driver.hpp"
#include "sys/icn.hpp"
#include "sys/params.hpp"
#include "sys/scheduler.hpp"
#include "sys/sys_dma.hpp"

namespace mp3d::sys {

/// One job: a kernel plus its staging contract. Regions are byte windows
/// in the *worker* cluster's address space; when `input_bytes` is nonzero
/// the region's contents (written by the kernel's init hook) are homed on
/// the home shard and transferred in over the mesh before the cluster
/// starts, and when `output_bytes` is nonzero the region is transferred
/// back to the home shard after EOC. Zero-byte regions skip staging.
struct JobSpec {
  std::string name;
  kernels::Kernel kernel;
  u32 input_base = 0;
  u64 input_bytes = 0;
  u32 output_base = 0;
  u64 output_bytes = 0;
  u64 max_cycles = 0;  ///< per-job local-cycle cap; 0 = inherit the run's
  bool warm_icache = false;
};

/// What happened to one job.
struct JobRecord {
  std::string name;
  u32 cluster = 0;           ///< worker cluster the scheduler picked
  sim::Cycle assigned_at = 0;   ///< system cycle the job was dispatched
  sim::Cycle started_at = 0;    ///< system cycle the cluster began stepping
  sim::Cycle eoc_at = 0;        ///< system cycle the run ended
  sim::Cycle completed_at = 0;  ///< system cycle the write-back retired
  bool dispatched = false;      ///< false: the run ended before assignment
  arch::RunResult result;       ///< bare-cluster semantics, local cycles
  std::string verify_error;     ///< kernel verify hook's message ("" = pass)

  bool ok() const { return dispatched && result.ok() && verify_error.empty(); }
};

struct SystemResult {
  u64 cycles = 0;  ///< system cycles until the last job completed
  bool ok = false;
  bool deadlock = false;
  bool hit_max_cycles = false;
  std::vector<JobRecord> jobs;
  sim::CounterSet counters;  ///< see namespacing note in the header comment
};

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const SystemConfig& config() const { return cfg_; }
  u32 num_clusters() const { return static_cast<u32>(clusters_.size()); }
  arch::Cluster& cluster(u32 k) { return *clusters_[k]; }
  const arch::Cluster& cluster(u32 k) const { return *clusters_[k]; }
  ClusterIcn& icn() { return *icn_; }
  SysDma& sys_dma() { return *sdma_; }

  /// Shard one run across the clusters: dispatch every job per the
  /// configured policy, stage inputs/outputs through the home shard, and
  /// drive all clusters to completion (or `max_cycles` system cycles).
  SystemResult run_jobs(std::vector<JobSpec> jobs, u64 max_cycles);

  /// The bare-cluster path: one job, no staging, on cluster 0. At
  /// num_clusters == 1 this is bit-identical to run_kernel on a Cluster.
  SystemResult run_kernel(const kernels::Kernel& kernel, u64 max_cycles,
                          bool warm_icache = false);

  /// Reset every component (clusters, icn, sys dma) to its post-load
  /// state. run_jobs does this implicitly on entry, so back-to-back runs
  /// of the same job list are identical.
  void reset_run_state();

  sim::Cycle now() const { return cycle_; }

 private:
  enum class ClusterState : u8 {
    kIdle,       ///< no job; eligible for dispatch
    kStagingIn,  ///< program loaded, waiting for the input transfer
    kRunning,    ///< stepping every system cycle
    kStagingOut  ///< run finished, waiting for the write-back transfer
  };
  struct Seat {
    ClusterState state = ClusterState::kIdle;
    std::size_t job = 0;          ///< index into jobs_ (valid unless kIdle)
    sim::Cycle offset = 0;        ///< system cycle of the job's local cycle 0
    u64 job_max_cycles = 0;       ///< effective local-cycle cap
    u64 staging_ticket = 0;       ///< SysDma ticket the seat waits on
    u32 home_slot = 0;            ///< staging slot in the home shard
  };

  // sim::drive hooks (see sim/driver.hpp).
  template <typename Model>
  friend sim::RunEnd sim::drive(Model& model, u64 max_cycles);
  /// One system cycle: dispatch to idle clusters, the system DMA, staging
  /// transitions, then every running cluster; jobs that ended are finished.
  void step();
  bool done() const { return jobs_done_ == records_.size(); }
  /// Aggregate progress witness (system DMA plus every cluster).
  u64 activity() const;
  /// Every running cluster may skip and no idle cluster is about to be
  /// handed a job (with none running, the system-wide setting decides).
  bool may_skip() const;
  sim::Cycle next_wake(sim::Cycle bound) const;
  sim::Cycle horizon() const;
  sim::Cycle skip_to(sim::Cycle target);

  void dispatch_jobs();
  void begin_staging_in(u32 k, const JobSpec& spec);
  void begin_running(u32 k);
  void finish_job(u32 k, bool eoc, bool deadlock, bool hit_max);
  /// Cluster k's finish(), with the telemetry collect label suffixed
  /// ".c<k>" at N > 1 so merged traces keep per-cluster pseudo-processes.
  arch::RunResult labelled_finish(u32 k, bool eoc, bool deadlock, bool hit_max);
  u32 alloc_home_slot(u64 bytes);
  SystemResult assemble_result(bool deadlock, bool hit_max);

  SystemConfig cfg_;
  std::vector<std::unique_ptr<arch::Cluster>> clusters_;
  std::unique_ptr<ClusterIcn> icn_;
  std::unique_ptr<SysDma> sdma_;
  JobScheduler scheduler_;
  bool fast_forward_ = true;  ///< cluster 0's env-resolved setting

  sim::Cycle cycle_ = 0;
  std::vector<Seat> seats_;
  std::vector<u8> loaded_;  ///< clusters with a program image (resettable)
  std::vector<JobSpec> jobs_;  ///< the current run's job list
  std::vector<JobRecord> records_;
  std::size_t jobs_done_ = 0;

  // Home-shard staging slots: a descending bump allocator from the top of
  // the home cluster's gmem window (kernel code/data grow from the bottom).
  u64 home_slot_top_ = 0;
};

}  // namespace mp3d::sys
