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
//   stage in  when the job declares an input region, its bytes are copied
//             into the System's home store and DMA'd to the worker across
//             the mesh — the cluster stays frozen until the copy retires;
//   run       a host thread of its own drives the cluster through
//             sim::drive, exactly as Cluster::run does (its local clock is
//             the system clock minus the cycle its program started);
//   stage out when the job declares an output region, the worker's result
//             is DMA'd back to the home store before the cluster is
//             considered idle again.
//
// A running job touches only its own cluster, so each one runs on its own
// host thread (at most one per cluster, with budget / clusters of the
// calling thread's host-thread budget for the cluster's group sections;
// see sim/fork_join.hpp) and publishes its local clock
// after every step and jump. The System is a sim::drive model too, on the
// thread that called run_jobs: step() runs dispatch, the system DMA, the
// staging transitions and the job ends; the wake oracle is the system
// DMA's next event plus every running job's end (known once its thread
// has ended, otherwise bounded below by its published clock). The System
// processes system cycle X only after every running job has ended or
// published a local clock past X - offset, so every record, counter and
// byte is the one a single thread stepping all clusters in lockstep would
// produce. A job ends at its own cluster's verdict: EOC, all cores halted,
// its cycle cap, or the deadlock verdict a bare Cluster::run would reach.
// A single-cluster System run is bit-identical to a bare Cluster::run:
// same RunResult, same counter names, same timeline and trace bytes.
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
/// the region's contents (written by the kernel's init hook) are homed in
/// the home store and transferred in over the mesh from the home cluster
/// before the cluster starts, and when `output_bytes` is nonzero the
/// region is transferred back to the home store after EOC. Zero-byte
/// regions skip staging.
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
  bool deadlock = false;  ///< some job ended in its cluster's deadlock verdict
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
  /// The System's own memory holding every job's staged copies, at the
  /// home cluster's gmem addresses: slots are bump-allocated down from the
  /// top of the window, in dispatch order, each as large as the job's
  /// larger staged region.
  const arch::GlobalMemory& home_store() const { return *home_; }

  /// Shard one run across the clusters: dispatch every job per the
  /// configured policy, stage inputs/outputs through the home store, and
  /// drive all clusters to completion (or `max_cycles` system cycles).
  SystemResult run_jobs(std::vector<JobSpec> jobs, u64 max_cycles);

  /// The bare-cluster path: one job, no staging, on cluster 0. At
  /// num_clusters == 1 this is bit-identical to run_kernel on a Cluster.
  SystemResult run_kernel(const kernels::Kernel& kernel, u64 max_cycles,
                          bool warm_icache = false);

  /// Reset every component (clusters, icn, sys dma) to its post-load
  /// state, and empty the home store's slot allocator. run_jobs does this
  /// implicitly on entry, so back-to-back runs of the same job list are
  /// identical.
  void reset_run_state();

  sim::Cycle now() const { return cycle_; }

 private:
  enum class ClusterState : u8 {
    kIdle,       ///< no job; eligible for dispatch
    kStagingIn,  ///< program loaded, waiting for the input transfer
    kRunning,    ///< its worker thread drives the cluster
    kStagingOut  ///< run finished, waiting for the write-back transfer
  };
  struct Seat {
    ClusterState state = ClusterState::kIdle;
    std::size_t job = 0;          ///< index into jobs_ (valid unless kIdle)
    sim::Cycle offset = 0;        ///< system cycle of the job's local cycle 0
    u64 job_max_cycles = 0;       ///< the job's own local-cycle cap (0 = none)
    u64 staging_ticket = 0;       ///< SysDma ticket the seat waits on
    u32 home_slot = 0;            ///< staging slot in the home store
  };
  /// The host thread driving one running job's cluster (defined in
  /// system.cpp).
  struct Worker;

  // sim::drive hooks (see sim/driver.hpp).
  template <typename Model>
  friend sim::RunEnd sim::drive(Model& model, u64 max_cycles);
  /// One system cycle: dispatch to idle clusters, the system DMA, staging
  /// transitions, then the running jobs that end this cycle, in cluster
  /// order.
  void step();
  bool done() const { return jobs_done_ == records_.size(); }
  /// Progress witness: system DMA progress plus job starts and ends.
  u64 activity() const { return sdma_->activity() + job_events_; }
  /// Fast-forward is on and no idle cluster is about to be handed a job.
  /// Running jobs never veto a jump: they run on their own threads.
  bool may_skip() const;
  sim::Cycle next_wake(sim::Cycle bound) const;
  /// The System has no boundaries of its own: job cycle caps and the
  /// clusters' telemetry and profiler boundaries live in the workers.
  sim::Cycle horizon() const { return sim::kNever; }
  sim::Cycle skip_to(sim::Cycle target);

  void dispatch_jobs();
  void begin_staging_in(u32 k, const JobSpec& spec);
  void begin_running(u32 k);
  /// Block until cluster k's worker has ended or is past local cycle
  /// `local`; when it is behind, sleep until it is kLookahead cycles past.
  void await_worker(u32 k, sim::Cycle local);
  /// Whether cluster k's job ends at system cycle `at`: its worker ended
  /// there with a verdict of the job's own (the run's cycle cap is not
  /// one), or it threw.
  bool ends_at(u32 k, sim::Cycle at) const;
  /// Join cluster k's ended worker; rethrow what it threw.
  void join_worker(u32 k);
  /// Finish cluster k's job on its worker's verdict.
  void end_job(u32 k);
  void finish_job(u32 k, bool eoc, bool deadlock, bool hit_max);
  /// Cluster k's finish(), with the telemetry collect label suffixed
  /// ".c<k>" at N > 1 so merged traces keep per-cluster pseudo-processes.
  arch::RunResult labelled_finish(u32 k, bool eoc, bool deadlock, bool hit_max);
  /// Ask every worker still running to stop, and join them all.
  void stop_workers();
  u32 alloc_home_slot(u64 bytes);
  SystemResult assemble_result(bool deadlock, bool hit_max);

  SystemConfig cfg_;
  std::vector<std::unique_ptr<arch::Cluster>> clusters_;
  std::unique_ptr<ClusterIcn> icn_;
  std::unique_ptr<SysDma> sdma_;
  std::unique_ptr<arch::GlobalMemory> home_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< one per cluster
  JobScheduler scheduler_;
  bool fast_forward_ = true;  ///< cluster 0's env-resolved setting

  sim::Cycle cycle_ = 0;
  u64 max_cycles_ = 0;   ///< the current run's cap, in system cycles
  u64 job_events_ = 0;   ///< job starts and ends so far this run
  std::vector<Seat> seats_;
  std::vector<u8> loaded_;  ///< clusters with a program image (resettable)
  std::vector<JobSpec> jobs_;  ///< the current run's job list
  std::vector<JobRecord> records_;
  std::size_t jobs_done_ = 0;

  // Home-store staging slots: a descending bump allocator from the top of
  // the gmem window.
  u64 home_slot_top_ = 0;
};

}  // namespace mp3d::sys
