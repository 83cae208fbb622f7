// SPDX-License-Identifier: Apache-2.0
// The hierarchical multi-cluster System: N identical Clusters, each owning
// one shard of the partitioned global memory, joined by the inter-cluster
// interconnect (ClusterIcn) and cluster-to-cluster DMA (SysDma).
//
// System::run_jobs shards independent jobs across the clusters:
//
//   assign    the scheduler hands a job to an idle cluster;
//   stage in  when the job declares an input region, a system-DMA
//             transfer from the home cluster to the worker times its move
//             across the mesh; the cluster stays frozen until it retires;
//   run       the cluster runs the job as a bare Cluster::run would (its
//             local clock is the system clock minus the cycle its program
//             started);
//   stage out when the job declares an output region, a transfer back to
//             the home cluster times the result's move before the cluster
//             is considered idle again.
//
// Staging is timing only: it moves no words. A job's staged input is what
// its own init hook writes into its worker's shard, and nothing reads its
// staged output but the job's verify hook, on the worker.
//
// What a job may read. Every job starts from cleared cluster memory: its
// SPM and gmem shard hold only what its program load and its init hook
// wrote, as on a freshly built Cluster. So a job's run needs nothing from
// the schedule, and the schedule needs only each job's length.
//
// Which thread runs it. run_jobs runs the jobs in job order on a pool of
// min(host-thread budget, clusters, jobs) host threads, each with
// budget / threads of the calling thread's budget for its cluster's group
// sections (see sim/fork_join.hpp). The pool threads only simulate: each
// job takes the cluster that has been idle longest, and the calling
// thread, while it waits on the pool, clears that cluster, loads the
// program, runs the init hook, hands the cluster to a pool thread for
// sim::drive, and once the run is back runs the verify hook (the
// run_kernel recipe). So hooks run one at a time on the calling thread, as
// in a bare run_kernel. Each job keeps its RunResult, verify verdict,
// telemetry and any exception. The pool starts at most twice its thread
// count of jobs past the last one the schedule has dispatched, so what it
// holds stays small, and it never holds back a job the schedule waits on.
//
// When its end and its deposit land. The calling thread replays the
// schedule as a sim::drive model of its own: step() runs dispatch, the
// system DMA and the staging transitions, and a running job ends at its
// start cycle plus its pool run's length. The replay waits on the pool
// only when it dispatches a job the pool has not run yet; a job's
// exception leaves run_jobs there. The wake oracle is the system DMA's
// next event plus every running job's end. Staging transfers keep their
// mesh routes and byte counts, so timing, counters and energy are the
// mesh's. A job's telemetry is deposited with the obs collector on the
// cycle it ends. So every record, counter and collected byte is the one a
// single thread stepping all clusters in lockstep would produce, whichever
// thread ran what. A job ends at its own cluster's verdict: EOC, all cores
// halted, a core fault, its cycle cap, or the deadlock verdict a bare
// Cluster::run would reach.
//
// Two cases re-run a job. A job the run's max_cycles cuts short is re-run
// with that cap. And when the run ends, cluster(k) holds the last job the
// schedule gave cluster k: the pool cluster that ran that job last takes
// index k, or the job is re-run there.
//
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
/// in the *worker* cluster's address space, whole words inside its gmem
/// window; when `input_bytes` is nonzero the region (which the kernel's
/// init hook writes in place) is timed in over the mesh from the home
/// cluster before the cluster starts, and when `output_bytes` is nonzero
/// the region is timed back to the home cluster after EOC. Staging moves
/// no words. Zero-byte regions skip staging.
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

  /// Shard one run across the clusters: dispatch every job per the
  /// configured policy, time its staged inputs/outputs over the mesh, and
  /// drive all clusters to completion (or `max_cycles` system cycles).
  /// Throws std::invalid_argument, before any job starts, when a job's
  /// staged regions are not whole words inside the gmem window.
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
  /// What running one job on a cluster left behind (defined in
  /// system.cpp).
  struct Outcome;
  /// The host threads that simulate the jobs, and the calling thread's
  /// host work around each run (defined in system.cpp).
  class Pool;

  enum class ClusterState : u8 {
    kIdle,       ///< no job; eligible for dispatch
    kStagingIn,  ///< job dispatched, waiting for the input transfer
    kRunning,    ///< the job runs until `ends_at`
    kStagingOut  ///< run finished, waiting for the write-back transfer
  };
  struct Seat {
    ClusterState state = ClusterState::kIdle;
    std::size_t job = 0;          ///< index into jobs_ (valid unless kIdle)
    Outcome* outcome = nullptr;   ///< the job's pool run (valid unless kIdle)
    sim::Cycle offset = 0;        ///< system cycle of the job's local cycle 0
    sim::Cycle ends_at = 0;       ///< offset plus the pool run's length
    u64 staging_ticket = 0;       ///< SysDma ticket the seat waits on
  };

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
  bool may_skip() const;
  sim::Cycle next_wake(sim::Cycle bound) const;
  /// The System has no boundaries of its own: job cycle caps and the
  /// clusters' telemetry and profiler boundaries live in the pool runs.
  sim::Cycle horizon() const { return sim::kNever; }
  sim::Cycle skip_to(sim::Cycle target);

  void dispatch_jobs();
  void begin_running(u32 k);
  /// Whether cluster k's job ends at system cycle `at` on a verdict of its
  /// own (the run's cycle cap is not one).
  bool ends_at(u32 k, sim::Cycle at) const;
  /// Record cluster k's job as ended this cycle with `outcome`'s result,
  /// deposit its telemetry and start its write-back.
  void finish_job(u32 k, Outcome& outcome);
  /// Deposit a job's telemetry with the obs collector, labelled ".c<k>"
  /// at N > 1 so merged traces keep per-cluster pseudo-processes.
  void deposit(u32 k, const obs::Telemetry& telemetry);
  /// After the replay: finish the jobs the run's cap cut, and give each
  /// cluster index the cluster holding the last job the schedule gave it.
  void settle();
  SystemResult assemble_result(bool deadlock, bool hit_max);

  SystemConfig cfg_;
  std::vector<std::unique_ptr<arch::Cluster>> clusters_;
  std::unique_ptr<ClusterIcn> icn_;
  std::unique_ptr<SysDma> sdma_;
  std::unique_ptr<Pool> pool_;  ///< the current run_jobs call's pool
  JobScheduler scheduler_;
  bool fast_forward_ = true;  ///< cluster 0's env-resolved setting

  sim::Cycle cycle_ = 0;
  u64 max_cycles_ = 0;   ///< the current run's cap, in system cycles
  u64 job_events_ = 0;   ///< job starts and ends so far this run
  std::vector<Seat> seats_;
  std::vector<std::size_t> last_job_;  ///< per cluster: last job dispatched this run
  std::vector<JobSpec> jobs_;  ///< the current run's job list
  std::vector<JobRecord> records_;
  std::size_t jobs_done_ = 0;
};

}  // namespace mp3d::sys
