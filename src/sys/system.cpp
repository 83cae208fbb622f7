// SPDX-License-Identifier: Apache-2.0
#include "sys/system.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/collector.hpp"
#include "sim/fork_join.hpp"

namespace mp3d::sys {

namespace {

/// A System thread that has caught up with a worker sleeps until the
/// worker is this many cycles ahead or has ended, so it wakes at most once
/// per that many of the worker's cycles.
constexpr sim::Cycle kLookahead = 4096;

u64 round_up4(u64 bytes) { return (bytes + 3) & ~u64{3}; }

}  // namespace

/// The host thread driving one running job's cluster. It is the sim::drive
/// model of its thread: every hook is the cluster's own, and step() and
/// skip_to() publish the cluster's clock. A published clock c means the job
/// has not ended before local cycle c (drive ends a run only right after a
/// step, and c may be that step), so offset + c bounds the job's end from
/// below; once `ended` is set, the clock is the job's final cycle.
///
/// The System's thread waits on a worker by storing the clock it wants in
/// `wake_at`, then reading `signal` and the clock, and sleeping on `signal`
/// while the clock is short. The worker stores its clock, then reads
/// `wake_at`, and bumps `signal` once the clock reaches it (claiming the
/// request with a compare-exchange, so it never clears a newer one); it
/// also bumps `signal` when it ends. All of these are sequentially
/// consistent, so either the worker sees the request or the System sees
/// the clock: no wake-up is lost.
struct System::Worker {
  Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  arch::Cluster* cluster = nullptr;
  // Written by the worker, read by the System's thread.
  alignas(64) std::atomic<sim::Cycle> clock{0};
  std::atomic<bool> ended{false};
  std::atomic<u32> signal{0};
  sim::RunEnd end = sim::RunEnd::kDone;  ///< set before `ended`
  std::exception_ptr error;              ///< set before `ended`
  // Written by the System's thread, read by the worker.
  alignas(64) std::atomic<sim::Cycle> wake_at{sim::kNever};
  std::atomic<bool> stop{false};
  std::thread thread;  ///< runs while the cluster's seat is kRunning

  /// Drive `driven` on a new thread with a host-thread budget of `budget`
  /// for its group sections.
  void start(arch::Cluster& driven, u64 max_cycles, u32 budget) {
    cluster = &driven;
    clock.store(driven.now());
    ended.store(false);
    wake_at.store(sim::kNever);
    stop.store(false);
    end = sim::RunEnd::kDone;
    error = nullptr;
    thread = std::thread([this, max_cycles, budget] {
      sim::set_host_thread_budget(budget);
      try {
        end = sim::drive(*this, max_cycles);
      } catch (...) {
        error = std::current_exception();
      }
      clock.store(cluster->now());
      ended.store(true);
      signal.fetch_add(1);
      signal.notify_one();
    });
  }

  void publish() {
    const sim::Cycle now = cluster->now();
    clock.store(now);
    sim::Cycle wanted = wake_at.load();
    if (now >= wanted && wake_at.compare_exchange_strong(wanted, sim::kNever)) {
      signal.fetch_add(1);
      signal.notify_one();
    }
  }

  // sim::drive hooks (see sim/driver.hpp); `stop` ends the run early when
  // the System abandons it.
  sim::Cycle now() const { return cluster->now(); }
  void step() {
    cluster->step();
    publish();
  }
  bool done() const { return cluster->done() || stop.load(); }
  u64 activity() const { return cluster->activity(); }
  bool may_skip() const { return cluster->may_skip(); }
  sim::Cycle next_wake(sim::Cycle bound) const { return cluster->next_wake(bound); }
  sim::Cycle horizon() const { return cluster->horizon(); }
  sim::Cycle skip_to(sim::Cycle target) {
    const sim::Cycle active_at = cluster->skip_to(target);
    publish();
    return active_at;
  }
};

std::string SystemConfig::to_string() const {
  std::ostringstream oss;
  oss << "System{clusters=" << num_clusters << " mesh_cols=" << mesh_cols()
      << " icn=" << icn.link_bytes_per_cycle << "B/cy/" << icn.hop_latency
      << "cy-hop sys_dma=" << sys_dma.port_bytes_per_cycle << "B/cy x"
      << sys_dma.queue_depth << " policy=" << sys::to_string(policy)
      << " home=" << home_cluster << "}";
  return oss.str();
}

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg)), scheduler_(cfg_.policy, cfg_.num_clusters) {
  cfg_.validate();
  clusters_.reserve(cfg_.num_clusters);
  workers_.reserve(cfg_.num_clusters);
  for (u32 k = 0; k < cfg_.num_clusters; ++k) {
    clusters_.push_back(std::make_unique<arch::Cluster>(cfg_.cluster));
    workers_.push_back(std::make_unique<Worker>());
  }
  icn_ = std::make_unique<ClusterIcn>(cfg_.icn, cfg_.num_clusters);
  sdma_ = std::make_unique<SysDma>(cfg_.sys_dma, *icn_);
  home_ = std::make_unique<arch::GlobalMemory>(
      cfg_.cluster.gmem_base, cfg_.cluster.gmem_size, cfg_.cluster.gmem_bytes_per_cycle,
      cfg_.cluster.gmem_latency);
  seats_.resize(cfg_.num_clusters);
  loaded_.assign(cfg_.num_clusters, 0);
  fast_forward_ = clusters_[0]->fast_forward_enabled();
  home_slot_top_ = cfg_.cluster.gmem_base + cfg_.cluster.gmem_size;
}

System::~System() { stop_workers(); }

void System::stop_workers() {
  for (const std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->stop.store(true);
      worker->thread.join();
    }
  }
}

void System::reset_run_state() {
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (loaded_[k] != 0) {
      clusters_[k]->reset_run_state();
    }
  }
  icn_->reset_run_state();
  sdma_->reset_run_state();
  cycle_ = 0;
  job_events_ = 0;
  std::fill(seats_.begin(), seats_.end(), Seat{});
  records_.clear();
  jobs_done_ = 0;
  home_slot_top_ = cfg_.cluster.gmem_base + cfg_.cluster.gmem_size;
}

u32 System::alloc_home_slot(u64 bytes) {
  bytes = round_up4(bytes);
  MP3D_CHECK(bytes <= home_slot_top_ - cfg_.cluster.gmem_base,
             "the run's staged regions overflow the home store");
  home_slot_top_ -= bytes;
  return static_cast<u32>(home_slot_top_);
}

void System::begin_staging_in(u32 k, const JobSpec& spec) {
  Seat& seat = seats_[k];
  arch::Cluster& worker = *clusters_[k];
  // The init hook wrote the inputs into the worker's shard (the host-side
  // programming model). Home the same bytes in the home store, then move
  // them back over the mesh from the home cluster as a timed transfer: the
  // data is unchanged, but the run pays the real staging latency, link
  // occupancy and hop energy of inputs that live in home memory.
  home_->write_words(seat.home_slot, worker.read_words(spec.input_base, spec.input_bytes / 4));
  seat.staging_ticket =
      sdma_->push(k, C2cDescriptor{cfg_.home_cluster, k, home_.get(), &worker.gmem(),
                                   seat.home_slot, spec.input_base, spec.input_bytes, 0});
  seat.state = ClusterState::kStagingIn;
}

void System::begin_running(u32 k) {
  Seat& seat = seats_[k];
  seat.state = ClusterState::kRunning;
  seat.offset = cycle_;
  records_[seat.job].started_at = cycle_;
  ++job_events_;
  // The worker stops at the job's own cap or at the run's, whichever
  // comes first; step() runs no later than cycle max_cycles_, so the
  // run's cap leaves at least one local cycle.
  u64 cap = max_cycles_ - cycle_;
  if (seat.job_max_cycles > 0) {
    cap = std::min(cap, seat.job_max_cycles);
  }
  // Each job's thread gets its share of this thread's host threads.
  workers_[k]->start(*clusters_[k], cap,
                     std::max<u32>(1, sim::host_thread_budget() / num_clusters()));
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
    JobSpec& spec = jobs_[*job];
    JobRecord& rec = records_[*job];
    rec.cluster = k;
    rec.assigned_at = cycle_;
    rec.dispatched = true;
    seat.job_max_cycles = spec.max_cycles;
    if (spec.input_bytes > 0 || spec.output_bytes > 0) {
      const u64 region = cfg_.cluster.gmem_size;
      MP3D_CHECK(spec.input_bytes % 4 == 0 && spec.output_bytes % 4 == 0,
                 "staged regions must be whole words");
      MP3D_CHECK(
          (spec.input_bytes == 0 ||
           (spec.input_base >= cfg_.cluster.gmem_base &&
            spec.input_base + spec.input_bytes <= cfg_.cluster.gmem_base + region)) &&
              (spec.output_bytes == 0 ||
               (spec.output_base >= cfg_.cluster.gmem_base &&
                spec.output_base + spec.output_bytes <=
                    cfg_.cluster.gmem_base + region)),
          "staged regions must lie in the worker's gmem window");
      seat.home_slot =
          alloc_home_slot(std::max(spec.input_bytes, spec.output_bytes));
    }
    clusters_[k]->load_program(spec.kernel.program);
    loaded_[k] = 1;
    if (spec.kernel.init) {
      spec.kernel.init(*clusters_[k]);
    }
    if (spec.warm_icache) {
      clusters_[k]->warm_icaches();
    }
    if (spec.input_bytes > 0) {
      begin_staging_in(k, spec);
    } else {
      begin_running(k);
    }
  }
}

arch::RunResult System::labelled_finish(u32 k, bool eoc, bool deadlock,
                                        bool hit_max) {
  if (num_clusters() == 1) {
    // Single-cluster back-compat: do not touch the collect label, so the
    // deposited timeline/trace bytes match a bare Cluster run exactly.
    return clusters_[k]->finish(eoc, deadlock, hit_max);
  }
  const std::string saved = obs::collect_label();
  std::string mine = "c";
  mine += std::to_string(k);
  obs::set_collect_label(saved.empty() ? mine : saved + "." + mine);
  arch::RunResult result = clusters_[k]->finish(eoc, deadlock, hit_max);
  obs::set_collect_label(saved);
  return result;
}

void System::finish_job(u32 k, bool eoc, bool deadlock, bool hit_max) {
  Seat& seat = seats_[k];
  const JobSpec& spec = jobs_[seat.job];
  JobRecord& rec = records_[seat.job];
  rec.result = labelled_finish(k, eoc, deadlock, hit_max);
  rec.eoc_at = cycle_;
  ++job_events_;
  if (eoc && spec.kernel.verify) {
    rec.verify_error = spec.kernel.verify(*clusters_[k], rec.result);
  }
  if (eoc && spec.output_bytes > 0) {
    seat.staging_ticket = sdma_->push(
        k, C2cDescriptor{k, cfg_.home_cluster, &clusters_[k]->gmem(), home_.get(),
                         spec.output_base, seat.home_slot, spec.output_bytes, 0});
    seat.state = ClusterState::kStagingOut;
    return;
  }
  rec.completed_at = cycle_;
  ++jobs_done_;
  seat.state = ClusterState::kIdle;
}

void System::await_worker(u32 k, sim::Cycle local) {
  Worker& worker = *workers_[k];
  if (worker.ended.load() || worker.clock.load() > local) {
    return;
  }
  const sim::Cycle wanted = local + kLookahead;
  worker.wake_at.store(wanted);
  for (;;) {
    const u32 seen = worker.signal.load();
    if (worker.ended.load() || worker.clock.load() >= wanted) {
      return;
    }
    worker.signal.wait(seen);
  }
}

bool System::ends_at(u32 k, sim::Cycle at) const {
  const Worker& worker = *workers_[k];
  const Seat& seat = seats_[k];
  if (!worker.ended.load()) {
    return false;
  }
  if (worker.error) {
    return true;  // whenever it threw: end_job rethrows it
  }
  if (seat.offset + worker.clock.load() != at) {
    return false;
  }
  return worker.end != sim::RunEnd::kMaxCycles ||
         (seat.job_max_cycles > 0 && at - seat.offset >= seat.job_max_cycles);
}

void System::join_worker(u32 k) {
  Worker& worker = *workers_[k];
  worker.thread.join();
  if (worker.error) {
    std::rethrow_exception(worker.error);
  }
}

void System::end_job(u32 k) {
  join_worker(k);
  const arch::Cluster& cluster = *clusters_[k];
  switch (workers_[k]->end) {
    case sim::RunEnd::kDone:
      finish_job(k, cluster.eoc_signaled(), false, false);
      break;
    case sim::RunEnd::kDeadlock:
      MP3D_WARN("deadlock: job " << records_[seats_[k].job].name << " on cluster " << k
                                 << ": " << cluster.deadlock_diagnostic());
      finish_job(k, false, true, false);
      break;
    case sim::RunEnd::kMaxCycles:
      finish_job(k, false, false, true);
      break;
  }
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
  // The jobs that end this cycle, in cluster order. A worker behind this
  // cycle may still end in it, so wait until it is past it or has ended.
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state != ClusterState::kRunning) {
      continue;
    }
    await_worker(k, cycle_ - seats_[k].offset);
    if (ends_at(k, cycle_)) {
      end_job(k);
    }
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
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state == ClusterState::kRunning) {
      target = std::min(target, seats_[k].offset + workers_[k]->clock.load());
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

SystemResult System::run_jobs(std::vector<JobSpec> jobs, u64 max_cycles) {
  reset_run_state();
  jobs_ = std::move(jobs);
  max_cycles_ = max_cycles;
  scheduler_.reset(jobs_.size());
  records_.assign(jobs_.size(), JobRecord{});
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    records_[i].name = jobs_[i].name;
  }
  sim::RunEnd end = sim::RunEnd::kDone;
  try {
    if (!done()) {
      end = sim::drive(*this, max_cycles);
    }
    // The jobs still running when the run itself ends: their workers stop
    // at the run's cap, on this very cycle.
    if (end != sim::RunEnd::kDone) {
      const bool deadlock = end == sim::RunEnd::kDeadlock;
      for (u32 k = 0; k < num_clusters(); ++k) {
        if (seats_[k].state == ClusterState::kRunning) {
          join_worker(k);
          finish_job(k, false, deadlock, !deadlock);
        }
      }
    }
  } catch (...) {
    stop_workers();
    throw;
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
