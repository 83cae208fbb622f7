// SPDX-License-Identifier: Apache-2.0
#include "sys/system.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/collector.hpp"

namespace mp3d::sys {

namespace {

/// Translate a cluster-local cycle to the system clock (kNever saturates).
sim::Cycle to_system_cycle(sim::Cycle local, sim::Cycle offset) {
  return local >= sim::kNever - offset ? sim::kNever : local + offset;
}

u64 round_up4(u64 bytes) { return (bytes + 3) & ~u64{3}; }

}  // namespace

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
  std::vector<arch::GlobalMemory*> shards;
  shards.reserve(cfg_.num_clusters);
  for (u32 k = 0; k < cfg_.num_clusters; ++k) {
    clusters_.push_back(std::make_unique<arch::Cluster>(cfg_.cluster));
    shards.push_back(&clusters_.back()->gmem());
  }
  icn_ = std::make_unique<ClusterIcn>(cfg_.icn, cfg_.num_clusters);
  sdma_ = std::make_unique<SysDma>(cfg_.sys_dma, *icn_, std::move(shards));
  seats_.resize(cfg_.num_clusters);
  loaded_.assign(cfg_.num_clusters, 0);
  fast_forward_ = clusters_[0]->fast_forward_enabled();
  home_slot_top_ = cfg_.cluster.gmem_base + cfg_.cluster.gmem_size;
}

System::~System() = default;

void System::reset_run_state() {
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (loaded_[k] != 0) {
      clusters_[k]->reset_run_state();
    }
  }
  icn_->reset_run_state();
  sdma_->reset_run_state();
  cycle_ = 0;
  std::fill(seats_.begin(), seats_.end(), Seat{});
  records_.clear();
  jobs_done_ = 0;
  home_slot_top_ = cfg_.cluster.gmem_base + cfg_.cluster.gmem_size;
}

u32 System::alloc_home_slot(u64 bytes) {
  bytes = round_up4(bytes);
  MP3D_CHECK(bytes <= home_slot_top_, "home-shard staging slot underflow");
  home_slot_top_ -= bytes;
  // Kernel code and data grow from the bottom of the shard; staging slots
  // grow down from the top. Keeping the slots in the upper half guarantees
  // they never overlap a GmemAllocator allocation.
  MP3D_CHECK(home_slot_top_ >=
                 cfg_.cluster.gmem_base + cfg_.cluster.gmem_size / 2,
             "home-shard staging slots would overlap kernel data");
  return static_cast<u32>(home_slot_top_);
}

void System::begin_staging_in(u32 k, const JobSpec& spec) {
  Seat& seat = seats_[k];
  arch::GlobalMemory& home = clusters_[cfg_.home_cluster]->gmem();
  arch::GlobalMemory& worker = clusters_[k]->gmem();
  // The init hook wrote the inputs into the worker's shard (the host-side
  // programming model). Home the same bytes on the home shard, then move
  // them back over the mesh as a timed transfer: the data is unchanged,
  // but the run pays the real staging latency, link occupancy and hop
  // energy of inputs that live in home memory.
  for (u64 off = 0; off < spec.input_bytes; off += 4) {
    home.write_word(static_cast<u32>(seat.home_slot + off),
                    worker.read_word(static_cast<u32>(spec.input_base + off)));
  }
  seat.staging_ticket =
      sdma_->push(k, C2cDescriptor{cfg_.home_cluster, k, seat.home_slot,
                                   spec.input_base, spec.input_bytes, 0});
  seat.state = ClusterState::kStagingIn;
}

void System::begin_running(u32 k) {
  Seat& seat = seats_[k];
  seat.state = ClusterState::kRunning;
  seat.offset = cycle_;
  records_[seat.job].started_at = cycle_;
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
  if (eoc && spec.kernel.verify) {
    rec.verify_error = spec.kernel.verify(*clusters_[k], rec.result);
  }
  if (eoc && spec.output_bytes > 0) {
    seat.staging_ticket =
        sdma_->push(k, C2cDescriptor{k, cfg_.home_cluster, spec.output_base,
                                     seat.home_slot, spec.output_bytes, 0});
    seat.state = ClusterState::kStagingOut;
    return;
  }
  rec.completed_at = cycle_;
  ++jobs_done_;
  seat.state = ClusterState::kIdle;
}

void System::step() {
  // Dispatch runs first, so a newly assigned job starts this very cycle
  // (may_skip() holds every jump while a dispatch is due).
  dispatch_jobs();
  const sim::Cycle now = cycle_ + 1;
  sdma_->step(now);
  // Staging transitions ride the same cycle their transfer retires in:
  // the system DMA steps before the clusters (mirroring the cluster's
  // gmem-before-cores phase order), so a landed input lets its cluster
  // start this very cycle.
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
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state == ClusterState::kRunning) {
      clusters_[k]->step();
    }
  }
  ++cycle_;
  for (u32 k = 0; k < num_clusters(); ++k) {
    const Seat& seat = seats_[k];
    if (seat.state != ClusterState::kRunning) {
      continue;
    }
    const arch::Cluster& cluster = *clusters_[k];
    if (cluster.eoc_signaled()) {
      finish_job(k, true, false, false);
    } else if (cluster.all_cores_halted()) {
      finish_job(k, false, false, false);
    } else if (seat.job_max_cycles > 0 &&
               cycle_ - seat.offset >= seat.job_max_cycles) {
      finish_job(k, false, false, true);
    }
  }
}

u64 System::activity() const {
  u64 total = sdma_->activity();
  for (const auto& cluster : clusters_) {
    total += cluster->activity();
  }
  return total;
}

bool System::may_skip() const {
  // Frozen staging clusters do not veto: they have no work until their
  // transfer lands.
  bool any_running = false;
  for (u32 k = 0; k < num_clusters(); ++k) {
    switch (seats_[k].state) {
      case ClusterState::kIdle:
        if (scheduler_.has_job(k)) {
          return false;  // step() dispatches to this cluster first
        }
        break;
      case ClusterState::kRunning:
        if (!clusters_[k]->may_skip()) {
          return false;
        }
        any_running = true;
        break;
      default:
        break;
    }
  }
  return any_running || fast_forward_;
}

sim::Cycle System::next_wake(sim::Cycle bound) const {
  const sim::Cycle floor = cycle_ + 1;
  sim::Cycle target = std::min(bound, sdma_->next_event_cycle(cycle_));
  if (target <= floor) {
    return floor;
  }
  for (u32 k = 0; k < num_clusters(); ++k) {
    const Seat& seat = seats_[k];
    if (seat.state != ClusterState::kRunning) {
      continue;
    }
    const sim::Cycle local = clusters_[k]->next_wake(target - seat.offset);
    target = std::min(target, to_system_cycle(local, seat.offset));
    if (target <= floor) {
      return floor;
    }
  }
  return target;
}

sim::Cycle System::horizon() const {
  sim::Cycle next = sim::kNever;
  for (u32 k = 0; k < num_clusters(); ++k) {
    const Seat& seat = seats_[k];
    if (seat.state != ClusterState::kRunning) {
      continue;
    }
    next = std::min(next, to_system_cycle(clusters_[k]->horizon(), seat.offset));
    if (seat.job_max_cycles > 0) {
      next = std::min(next, to_system_cycle(seat.job_max_cycles, seat.offset));
    }
  }
  return next;
}

sim::Cycle System::skip_to(sim::Cycle target) {
  sim::Cycle last_active = 0;
  for (u32 k = 0; k < num_clusters(); ++k) {
    if (seats_[k].state == ClusterState::kRunning) {
      const sim::Cycle local = clusters_[k]->skip_to(target - seats_[k].offset);
      if (local != 0) {
        last_active = std::max(last_active, local + seats_[k].offset);
      }
    }
  }
  const u64 span = target - cycle_ - 1;
  sdma_->skip_cycles(span);
  cycle_ += span;
  return last_active;
}

SystemResult System::assemble_result(bool deadlock, bool hit_max) {
  SystemResult result;
  result.cycles = cycle_;
  result.deadlock = deadlock;
  result.hit_max_cycles = hit_max;
  result.jobs = std::move(records_);
  records_.clear();
  jobs_.clear();
  result.ok = !deadlock && !hit_max &&
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
  scheduler_.reset(jobs_.size());
  records_.assign(jobs_.size(), JobRecord{});
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    records_[i].name = jobs_[i].name;
  }
  const sim::RunEnd end = done() ? sim::RunEnd::kDone : sim::drive(*this, max_cycles);
  if (end != sim::RunEnd::kDone) {
    const bool deadlock = end == sim::RunEnd::kDeadlock;
    for (u32 k = 0; k < num_clusters(); ++k) {
      if (seats_[k].state != ClusterState::kRunning) {
        continue;
      }
      if (deadlock) {
        MP3D_WARN("system deadlock: cluster " << k << ": "
                                              << clusters_[k]->deadlock_diagnostic());
      }
      finish_job(k, false, deadlock, !deadlock);
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
