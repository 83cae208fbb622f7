// SPDX-License-Identifier: Apache-2.0
#include "sys/system.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "sim/fork_join.hpp"

namespace mp3d::sys {

namespace {

constexpr std::size_t kNoJob = ~std::size_t{0};

/// Reject a job whose staged regions are not whole words inside the
/// worker's gmem window; the message names the job.
void check_staging(const JobSpec& spec, const arch::ClusterConfig& cfg) {
  // Written so that no sum of a base and a size can wrap.
  const auto inside = [&cfg](u32 base, u64 bytes) {
    return bytes == 0 || (base >= cfg.gmem_base && bytes <= cfg.gmem_size &&
                          base - cfg.gmem_base <= cfg.gmem_size - bytes);
  };
  MP3D_CHECK(spec.input_bytes % 4 == 0 && spec.output_bytes % 4 == 0,
             "job " << spec.name << ": staged regions must be whole words");
  MP3D_CHECK(inside(spec.input_base, spec.input_bytes) &&
                 inside(spec.output_base, spec.output_bytes),
             "job " << spec.name << ": staged regions must lie in the worker's gmem window");
}

/// The local-cycle cap of a job's pool run: its own cap, or the run's. A
/// job dispatched at a later cycle is capped at fewer cycles by the run,
/// so its pool run is never the shorter one.
u64 pool_cap(const JobSpec& spec, u64 max_cycles) {
  return spec.max_cycles > 0 ? std::min(spec.max_cycles, max_cycles) : max_cycles;
}

/// The sim::drive model of one pool run: the cluster's own hooks, with the
/// pool's stop flag ending the run early when the System abandons it.
struct StoppableRun {
  arch::Cluster& cluster;
  const std::atomic<bool>& stop;

  sim::Cycle now() const { return cluster.now(); }
  void step() { cluster.step(); }
  bool done() const { return cluster.done() || stop.load(std::memory_order_relaxed); }
  u64 activity() const { return cluster.activity(); }
  bool may_skip() const { return cluster.may_skip(); }
  sim::Cycle next_wake(sim::Cycle bound) const { return cluster.next_wake(bound); }
  sim::Cycle horizon() const { return cluster.horizon(); }
  sim::Cycle skip_to(sim::Cycle target) { return cluster.skip_to(target); }
};

}  // namespace

struct System::Outcome {
  arch::RunResult result;
  sim::RunEnd end = sim::RunEnd::kDone;
  std::string verify_error;
  std::string deadlock_diagnostic;  ///< the cluster's, when end is kDeadlock
  /// A copy of the run's telemetry, while the obs collector takes deposits.
  std::unique_ptr<obs::Telemetry> telemetry;
  std::exception_ptr error;  ///< what the program load, a hook or the run threw
};

/// The host threads that run one run_jobs call's jobs. Task i runs a job
/// on a cluster with a local-cycle cap: the first tasks are the jobs in
/// job order, each on the cluster that has been idle longest (so the last
/// jobs run stay on as many clusters as there are); once those are
/// drained, settle() adds re-runs on named clusters.
///
/// The pool threads only simulate. Each task's host work (clearing the
/// cluster, loading the program, the init and verify hooks) runs on the
/// calling thread, inside await(), drain() and run() while it waits on the
/// pool, one task at a time as in a bare run_kernel. A task changes hands
/// twice under the one mutex: the calling thread starts it and queues it,
/// a pool thread simulates it and hands it back, and the calling thread
/// finishes it. Whoever holds a task owns its cluster and its outcome
/// until it hands the task on.
class System::Pool {
 public:
  static constexpr u32 kAnyCluster = ~0U;
  struct Task {
    std::size_t job = kNoJob;
    u32 cluster = kAnyCluster;  ///< kAnyCluster: the one idle longest
    u64 cap = 0;
  };

  Pool(System& system, u32 threads, std::vector<Task> tasks)
      : system_(system),
        budget_(std::max<u32>(1, sim::host_thread_budget() / threads)),
        ahead_(2 * threads),
        tasks_(std::move(tasks)),
        outcomes_(tasks_.size()),
        finished_(tasks_.size(), 0),
        ran_(system.num_clusters()) {
    for (u32 c = 0; c < system.num_clusters(); ++c) {
      idle_.push_back(c);
    }
    threads_.reserve(threads);
    try {
      for (u32 t = 0; t < threads; ++t) {
        threads_.emplace_back([this] { simulate(); });
      }
    } catch (...) {
      stop_and_join();
      throw;
    }
  }
  ~Pool() { stop_and_join(); }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Task i's outcome, once finished. Tasks up to `ahead_` past i may
  /// start meanwhile.
  Outcome& await(std::size_t i) {
    limit_ = std::max(limit_, std::min(tasks_.size(), i + 1 + ahead_));
    serve([this, i] { return finished_[i] != 0; });
    return outcomes_[i];
  }

  /// Start no more tasks, drop those never started, and finish the others.
  void drain() {
    tasks_.resize(next_);
    outcomes_.resize(next_);
    finished_.resize(next_);
    limit_ = next_;
    serve([this] { return in_flight_ == 0; });
  }

  /// After drain(): run `more` and finish every one. Returns the index of
  /// the first.
  std::size_t run(const std::vector<Task>& more) {
    const std::size_t first = tasks_.size();
    tasks_.insert(tasks_.end(), more.begin(), more.end());
    outcomes_.resize(tasks_.size());
    finished_.resize(tasks_.size(), 0);
    limit_ = tasks_.size();
    serve([this] { return next_ == tasks_.size() && in_flight_ == 0; });
    return first;
  }

  /// Task i's outcome (pre: it is finished).
  Outcome& outcome(std::size_t i) { return outcomes_[i]; }
  /// The last task cluster c ran (job kNoJob: none); pre: drained.
  const Task& ran(u32 c) const { return ran_[c]; }

 private:
  /// A started task, as a pool thread sees it.
  struct Queued {
    std::size_t task = 0;
    arch::Cluster* cluster = nullptr;
    u64 cap = 0;
    Outcome* outcome = nullptr;
  };

  /// The calling thread's loop: finish what the pool handed back, start
  /// what the window and the idle clusters allow, and sleep only when
  /// neither has work and `until` does not hold.
  template <typename Until>
  void serve(Until until) {
    std::vector<std::size_t> simulated;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] { return !simulated_.empty() || can_start() || until(); });
        simulated.swap(simulated_);
      }
      for (const std::size_t i : simulated) {
        finish(i);
      }
      simulated.clear();
      while (can_start()) {
        start(next_++);
      }
      if (until()) {
        return;
      }
    }
  }

  bool can_start() const {
    if (next_ >= limit_) {
      return false;
    }
    const u32 named = tasks_[next_].cluster;
    return named == kAnyCluster ? !idle_.empty()
                                : std::find(idle_.begin(), idle_.end(), named) != idle_.end();
  }

  /// Take task i's cluster, clear it, load the program and run the init
  /// hook (the run_kernel recipe up to the run), then queue the task for
  /// the pool.
  void start(std::size_t i) {
    Task& task = tasks_[i];
    if (task.cluster == kAnyCluster) {
      task.cluster = idle_.front();
      idle_.pop_front();
    } else {
      idle_.erase(std::find(idle_.begin(), idle_.end(), task.cluster));
    }
    ++in_flight_;
    arch::Cluster& cluster = *system_.clusters_[task.cluster];
    const JobSpec& spec = system_.jobs_[task.job];
    Outcome& out = outcomes_[i];
    try {
      cluster.clear_memory();
      cluster.load_program(spec.kernel.program);
      if (spec.kernel.init) {
        spec.kernel.init(cluster);
      }
      if (spec.warm_icache) {
        cluster.warm_icaches();
      }
    } catch (...) {
      out.error = std::current_exception();
      finish(i);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queued_.push_back(Queued{i, &cluster, task.cap, &out});
    }
    work_.notify_one();
  }

  /// A pool thread: simulate queued tasks until stopped.
  void simulate() {
    sim::set_host_thread_budget(budget_);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [this] { return stop_.load() || !queued_.empty(); });
      if (stop_.load()) {
        return;
      }
      const Queued run = queued_.front();
      queued_.pop_front();
      lock.unlock();
      try {
        StoppableRun model{*run.cluster, stop_};
        run.outcome->end = sim::drive(model, run.cap);
      } catch (...) {
        run.outcome->error = std::current_exception();
      }
      lock.lock();
      simulated_.push_back(run.task);
      done_.notify_one();
    }
  }

  /// Close task i's run at its verdict, run the verify hook (the rest of
  /// the run_kernel recipe), and free its cluster.
  void finish(std::size_t i) {
    const Task& task = tasks_[i];
    arch::Cluster& cluster = *system_.clusters_[task.cluster];
    const JobSpec& spec = system_.jobs_[task.job];
    Outcome& out = outcomes_[i];
    if (!out.error) {
      try {
        const bool eoc = out.end == sim::RunEnd::kDone && cluster.eoc_signaled();
        const bool deadlock = out.end == sim::RunEnd::kDeadlock;
        if (deadlock) {
          out.deadlock_diagnostic = cluster.deadlock_diagnostic();
        }
        out.result = cluster.end_run(eoc, deadlock, out.end == sim::RunEnd::kMaxCycles);
        if (cluster.telemetry() != nullptr && obs::global_request_active()) {
          out.telemetry = std::make_unique<obs::Telemetry>(*cluster.telemetry());
        }
        if (eoc && spec.kernel.verify) {
          out.verify_error = spec.kernel.verify(cluster, out.result);
        }
      } catch (...) {
        out.error = std::current_exception();
      }
    }
    finished_[i] = 1;
    --in_flight_;
    ran_[task.cluster] = task;
    idle_.push_back(task.cluster);
  }

  void stop_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_.store(true);
    }
    work_.notify_all();
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }

  System& system_;
  const u32 budget_;  ///< each pool thread's host-thread budget
  const std::size_t ahead_;
  // The calling thread's alone.
  std::vector<Task> tasks_;
  std::deque<Outcome> outcomes_;  ///< one per task; appends keep references
  std::vector<u8> finished_;      ///< per task: its outcome is complete
  std::size_t next_ = 0;          ///< the next task to start
  std::size_t limit_ = 0;         ///< tasks below it may start
  u32 in_flight_ = 0;             ///< started, not yet finished
  std::vector<Task> ran_;         ///< per cluster: the last task it ran
  std::deque<u32> idle_;          ///< clusters no task holds, idle longest first
  // Shared under the mutex.
  std::mutex mutex_;
  std::condition_variable work_;  ///< pool threads: a task was queued, or stop
  std::condition_variable done_;  ///< calling thread: a task was simulated
  std::deque<Queued> queued_;     ///< started, waiting for a pool thread
  std::vector<std::size_t> simulated_;  ///< simulated, waiting to be finished
  /// Set under the mutex; running simulations read it every cycle to stop.
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::string SystemConfig::to_string() const {
  std::ostringstream oss;
  oss << "System{clusters=" << num_clusters << " mesh_cols=" << mesh_cols()
      << " icn=" << icn.link_bytes_per_cycle << "B/cy/" << icn.hop_latency
      << "cy-hop sys_dma=" << sys_dma.port_bytes_per_cycle
      << "B/cy policy=" << sys::to_string(policy)
      << " home=" << home_cluster << "}";
  return oss.str();
}

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg)), scheduler_(cfg_.policy, cfg_.num_clusters) {
  cfg_.validate();
  clusters_.reserve(cfg_.num_clusters);
  for (u32 k = 0; k < cfg_.num_clusters; ++k) {
    clusters_.push_back(std::make_unique<arch::Cluster>(cfg_.cluster));
  }
  icn_ = std::make_unique<ClusterIcn>(cfg_.icn, cfg_.num_clusters);
  sdma_ = std::make_unique<SysDma>(cfg_.sys_dma, *icn_);
  seats_.resize(cfg_.num_clusters);
  last_job_.assign(cfg_.num_clusters, kNoJob);
  fast_forward_ = clusters_[0]->fast_forward_enabled();
}

System::~System() = default;

void System::reset_run_state() {
  for (const std::unique_ptr<arch::Cluster>& cluster : clusters_) {
    if (cluster->has_program()) {
      cluster->reset_run_state();
    }
  }
  icn_->reset_run_state();
  sdma_->reset_run_state();
  cycle_ = 0;
  job_events_ = 0;
  std::fill(seats_.begin(), seats_.end(), Seat{});
  std::fill(last_job_.begin(), last_job_.end(), kNoJob);
  records_.clear();
  jobs_done_ = 0;
}

void System::begin_running(u32 k) {
  Seat& seat = seats_[k];
  seat.state = ClusterState::kRunning;
  seat.offset = cycle_;
  seat.ends_at = cycle_ + seat.outcome->result.cycles;
  records_[seat.job].started_at = cycle_;
  ++job_events_;
}

void System::dispatch_jobs() {
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state != ClusterState::kIdle) {
      continue;
    }
    const std::optional<std::size_t> job = scheduler_.next_job(k);
    if (!job.has_value()) {
      continue;
    }
    Seat& seat = seats_[k];
    seat.job = *job;
    const JobSpec& spec = jobs_[*job];
    JobRecord& rec = records_[*job];
    rec.cluster = k;
    rec.assigned_at = cycle_;
    rec.dispatched = true;
    last_job_[k] = *job;
    seat.outcome = &pool_->await(*job);
    if (seat.outcome->error) {
      std::rethrow_exception(seat.outcome->error);
    }
    if (spec.input_bytes > 0) {
      // The init hook wrote the inputs into the worker's shard (the
      // host-side programming model), so the transfer from the home
      // cluster moves no words, but the run pays the staging latency, link
      // occupancy and hop energy of inputs that live in home memory.
      seat.staging_ticket =
          sdma_->push(k, C2cDescriptor{cfg_.home_cluster, k, spec.input_bytes, 0});
      seat.state = ClusterState::kStagingIn;
    } else {
      begin_running(k);
    }
  }
}

void System::deposit(u32 k, const obs::Telemetry& telemetry) {
  if (num_clusters() == 1) {
    // Single-cluster back-compat: do not touch the collect label, so the
    // deposited timeline/trace bytes match a bare Cluster run exactly.
    obs::collect_run(telemetry);
    return;
  }
  const std::string saved = obs::collect_label();
  std::string mine = "c";
  mine += std::to_string(k);
  obs::set_collect_label(saved.empty() ? mine : saved + "." + mine);
  obs::collect_run(telemetry);
  obs::set_collect_label(saved);
}

void System::finish_job(u32 k, Outcome& outcome) {
  Seat& seat = seats_[k];
  const JobSpec& spec = jobs_[seat.job];
  JobRecord& rec = records_[seat.job];
  rec.result = std::move(outcome.result);
  if (outcome.telemetry != nullptr) {
    deposit(k, *outcome.telemetry);
    outcome.telemetry.reset();
  }
  rec.eoc_at = cycle_;
  ++job_events_;
  rec.verify_error = std::move(outcome.verify_error);
  if (rec.result.eoc && spec.output_bytes > 0) {
    // The worker's result goes back to the home cluster: the transfer
    // charges its move over the mesh.
    seat.staging_ticket =
        sdma_->push(k, C2cDescriptor{k, cfg_.home_cluster, spec.output_bytes, 0});
    seat.state = ClusterState::kStagingOut;
    return;
  }
  rec.completed_at = cycle_;
  ++jobs_done_;
  seat.state = ClusterState::kIdle;
}

bool System::ends_at(u32 k, sim::Cycle at) const {
  const Seat& seat = seats_[k];
  if (seat.ends_at != at) {
    return false;
  }
  // A run cut by a cycle cap ends the job only at the job's own cap; at
  // the run's, the run itself ends first and settle() finishes the job.
  const u64 job_cap = jobs_[seat.job].max_cycles;
  return seat.outcome->end != sim::RunEnd::kMaxCycles ||
         (job_cap > 0 && at - seat.offset >= job_cap);
}

void System::step() {
  // Dispatch runs first, so a newly assigned job starts this very cycle
  // (may_skip() holds every jump while a dispatch is due).
  dispatch_jobs();
  const sim::Cycle now = cycle_ + 1;
  sdma_->step(now);
  // Staging transitions ride the same cycle their transfer retires in, so
  // a landed input lets its cluster start this very cycle (mirroring the
  // cluster's gmem-before-cores phase order).
  for (u32 k = 0; k < num_clusters(); ++k) {
    Seat& seat = seats_[k];
    if (seat.state == ClusterState::kStagingIn &&
        sdma_->retired(k) >= seat.staging_ticket) {
      begin_running(k);
    } else if (seat.state == ClusterState::kStagingOut &&
               sdma_->retired(k) >= seat.staging_ticket) {
      records_[seat.job].completed_at = now;
      ++jobs_done_;
      seat.state = ClusterState::kIdle;
    }
  }
  ++cycle_;
  // The jobs that end this cycle, in cluster order.
  for (u32 k = 0; k < num_clusters(); ++k) {
    Seat& seat = seats_[k];
    if (seat.state != ClusterState::kRunning || !ends_at(k, cycle_)) {
      continue;
    }
    if (seat.outcome->end == sim::RunEnd::kDeadlock) {
      MP3D_WARN("deadlock: job " << records_[seat.job].name << " on cluster " << k << ": "
                                 << seat.outcome->deadlock_diagnostic);
    }
    finish_job(k, *seat.outcome);
  }
}

bool System::may_skip() const {
  if (!fast_forward_) {
    return false;
  }
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state == ClusterState::kIdle && scheduler_.has_job(k)) {
      return false;  // step() dispatches to this cluster first
    }
  }
  return true;
}

sim::Cycle System::next_wake(sim::Cycle bound) const {
  sim::Cycle target = std::min(bound, sdma_->next_event_cycle(cycle_));
  for (const Seat& seat : seats_) {
    if (seat.state == ClusterState::kRunning) {
      target = std::min(target, seat.ends_at);
    }
  }
  return target;
}

sim::Cycle System::skip_to(sim::Cycle target) {
  // next_wake bounds the system DMA's next event and every running job's
  // end, so the span holds no System work: only the DMA's service
  // rotation moves.
  const u64 span = target - cycle_ - 1;
  sdma_->skip_cycles(span);
  cycle_ += span;
  return 0;
}

SystemResult System::assemble_result(bool deadlock, bool hit_max) {
  SystemResult result;
  result.cycles = cycle_;
  result.hit_max_cycles = hit_max;
  result.jobs = std::move(records_);
  records_.clear();
  jobs_.clear();
  result.deadlock =
      deadlock || std::any_of(result.jobs.begin(), result.jobs.end(),
                              [](const JobRecord& job) { return job.result.deadlock; });
  result.ok = !result.deadlock && !hit_max &&
              std::all_of(result.jobs.begin(), result.jobs.end(),
                          [](const JobRecord& job) { return job.ok(); });
  if (num_clusters() == 1) {
    // Bare-cluster counter names (additive when several jobs ran).
    for (const JobRecord& job : result.jobs) {
      if (job.dispatched) {
        result.counters.merge(job.result.counters);
      }
    }
  } else {
    for (const JobRecord& job : result.jobs) {
      if (!job.dispatched) {
        continue;
      }
      std::string prefix = "c";
      prefix += std::to_string(job.cluster);
      prefix += '.';
      for (const auto& [name, value] : job.result.counters.all()) {
        result.counters.bump(prefix + name, value);
      }
    }
  }
  icn_->add_counters(result.counters);
  sdma_->add_counters(result.counters);
  result.counters.set("cycles", cycle_);
  return result;
}

void System::settle() {
  pool_->drain();
  // The run each cluster index must end holding: the last job the
  // schedule gave it, run as its record says. A job cut while staging in
  // never started (cap 0), one cut while running stopped at the run's cap.
  // holder[k] is the cluster that ends at index k. An index the run gave
  // no job keeps its own cluster, which the pool never used: with fewer
  // jobs than clusters the first cycle dispatched every job, to clusters
  // 0, 1, ..., and the pool ran them on the clusters idle longest, the
  // same ones.
  std::vector<Pool::Task> finals(num_clusters());
  std::vector<u32> holder(num_clusters(), Pool::kAnyCluster);
  std::vector<u8> taken(num_clusters(), 0);
  for (u32 k = 0; k < num_clusters(); ++k) {
    const std::size_t job = last_job_[k];
    if (job == kNoJob) {
      holder[k] = k;
      taken[k] = 1;
      continue;
    }
    const Seat& seat = seats_[k];
    u64 cap = pool_cap(jobs_[job], max_cycles_);
    if (seat.state == ClusterState::kStagingIn) {
      cap = 0;
    } else if (seat.state == ClusterState::kRunning) {
      cap = max_cycles_ - seat.offset;
    }
    finals[k] = Pool::Task{job, k, cap};
  }
  // Index k takes the cluster that ran exactly that last, if any.
  for (u32 k = 0; k < num_clusters(); ++k) {
    for (u32 c = 0; c < num_clusters() && holder[k] == Pool::kAnyCluster; ++c) {
      const Pool::Task& ran = pool_->ran(c);
      if (taken[c] == 0 && ran.job == finals[k].job && ran.cap == finals[k].cap) {
        holder[k] = c;
        taken[c] = 1;
      }
    }
  }
  // The others re-run their job on a cluster left over, their own first.
  std::vector<Pool::Task> reruns;
  std::vector<std::size_t> rerun_of(num_clusters(), kNoJob);
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (holder[k] != Pool::kAnyCluster) {
      continue;
    }
    u32 c = k;
    while (taken[c] != 0) {
      c = (c + 1) % num_clusters();
    }
    holder[k] = c;
    taken[c] = 1;
    rerun_of[k] = reruns.size();
    reruns.push_back(Pool::Task{finals[k].job, c, finals[k].cap});
  }
  const std::size_t first = reruns.empty() ? 0 : pool_->run(reruns);
  for (std::size_t i = 0; i < reruns.size(); ++i) {
    if (pool_->outcome(first + i).error) {
      std::rethrow_exception(pool_->outcome(first + i).error);
    }
  }
  // The jobs still running stop at the run's cap, on this very cycle.
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state == ClusterState::kRunning) {
      finish_job(k, rerun_of[k] == kNoJob ? *seats_[k].outcome
                                          : pool_->outcome(first + rerun_of[k]));
    }
  }
  pool_.reset();
  std::vector<std::unique_ptr<arch::Cluster>> held(num_clusters());
  for (u32 k = 0; k < num_clusters(); ++k) {
    held[k] = std::move(clusters_[holder[k]]);
  }
  clusters_ = std::move(held);
}

SystemResult System::run_jobs(std::vector<JobSpec> jobs, u64 max_cycles) {
  for (const JobSpec& spec : jobs) {
    check_staging(spec, cfg_.cluster);
  }
  reset_run_state();
  jobs_ = std::move(jobs);
  max_cycles_ = max_cycles;
  scheduler_.reset(jobs_.size());
  records_.assign(jobs_.size(), JobRecord{});
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    records_[i].name = jobs_[i].name;
  }
  sim::RunEnd end = sim::RunEnd::kDone;
  if (!done()) {
    try {
      std::vector<Pool::Task> tasks(jobs_.size());
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        tasks[j] = Pool::Task{j, Pool::kAnyCluster, pool_cap(jobs_[j], max_cycles)};
      }
      const u32 threads = static_cast<u32>(std::min<std::size_t>(
          {sim::host_thread_budget(), num_clusters(), jobs_.size()}));
      pool_ = std::make_unique<Pool>(*this, threads, std::move(tasks));
      end = sim::drive(*this, max_cycles);
      settle();
    } catch (...) {
      pool_.reset();
      throw;
    }
  }
  return assemble_result(end == sim::RunEnd::kDeadlock,
                         end == sim::RunEnd::kMaxCycles);
}

SystemResult System::run_kernel(const kernels::Kernel& kernel, u64 max_cycles,
                                bool warm_icache) {
  JobSpec spec;
  spec.name = kernel.name;
  spec.kernel = kernel;
  spec.warm_icache = warm_icache;
  std::vector<JobSpec> jobs;
  jobs.push_back(std::move(spec));
  return run_jobs(std::move(jobs), max_cycles);
}

}  // namespace mp3d::sys
