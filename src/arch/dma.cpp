// SPDX-License-Identifier: Apache-2.0
#include "arch/dma.hpp"

#include <algorithm>
#include <array>

#include "arch/global_mem.hpp"
#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace mp3d::arch {

void DmaRetireTracker::note_retired(u64 ticket) {
  if (ticket != watermark_ + 1) {
    parked_.push_back(ticket);  // a lower ticket is still in flight
    return;
  }
  ++watermark_;
  // Drain parked retirements that have become contiguous. The parked set
  // is bounded by the group's total descriptor-queue depth, so the
  // quadratic drain is over a handful of entries.
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (std::size_t i = 0; i < parked_.size(); ++i) {
      if (parked_[i] == watermark_ + 1) {
        ++watermark_;
        parked_[i] = parked_.back();
        parked_.pop_back();
        advanced = true;
        break;
      }
    }
  }
}

void DmaRetireTracker::reset() {
  issued_ = 0;
  watermark_ = 0;
  parked_.clear();
}

DmaEngine::DmaEngine(const DmaConfig& cfg, u32 channel_bytes_per_cycle, u32 gmem_latency)
    : max_outstanding_(cfg.max_outstanding),
      port_bytes_per_cycle_(cfg.bytes_per_cycle),
      max_grant_per_cycle_(std::min(cfg.bytes_per_cycle, channel_bytes_per_cycle)),
      gmem_latency_(gmem_latency) {
  MP3D_ASSERT(max_grant_per_cycle_ > 0);
}

u32 DmaEngine::pending() const {
  return static_cast<u32>(queue_.size() + (active_ ? 1 : 0) + completing_.size());
}

void DmaEngine::push(DmaDescriptor descriptor, sim::Cycle now) {
  MP3D_CHECK(can_accept(), "DMA descriptor queue overflow");
  MP3D_CHECK(descriptor.bytes_per_row > 0 && descriptor.bytes_per_row % 4 == 0,
             "DMA row length must be a positive multiple of 4");
  MP3D_CHECK(descriptor.rows >= 1, "DMA descriptor needs at least one row");
  backlog_bytes_ += descriptor.total_bytes();
  if (trace_ != nullptr) {
    trace_->instant(track_, ev_staged_, now, descriptor.ticket);
  }
  queue_.push_back(descriptor);
}

void DmaEngine::set_trace(obs::Trace* trace, u32 track) {
  trace_ = trace;
  track_ = track;
  if (trace_ != nullptr) {
    ev_staged_ = trace_->intern("dma_staged");
    ev_xfer_ = trace_->intern("dma_xfer");
    ev_retired_ = trace_->intern("dma_retired");
  }
}

void DmaEngine::step(sim::Cycle now, u32 grant, GlobalMemory& gmem, DmaSpmPort& spm,
                     DmaRetireTracker& tracker) {
  while (!completing_.empty() && completing_.front().done_at <= now) {
    // The descriptor leaves the pending count this cycle; this is the
    // moment software can observe completion, so the retired watermark
    // advances first and the wake fires after it (a woken waiter must see
    // the updated count on its next ctrl read).
    tracker.note_retired(completing_.front().ticket);
    if (trace_ != nullptr) {
      trace_->instant(track_, ev_retired_, now, completing_.front().ticket);
    }
    if (completing_.front().waker != kDmaNoWaker) {
      spm.dma_wake_core(completing_.front().waker);
    }
    completing_.pop_front();
  }
  // The claim spans descriptors: one that completes with port width to
  // spare hands the rest to the next, which activates even when the claim
  // is spent (the channel ran out exactly at the boundary).
  u32 port_budget = port_bytes_per_cycle_;
  u32 left = grant;
  while (port_budget > 0) {
    if (!active_) {
      if (queue_.empty()) {
        break;
      }
      current_ = queue_.front();
      queue_.pop_front();
      active_ = true;
      granted_bytes_ = 0;
      moved_bytes_ = 0;
      gmem_row_ = current_.to_spm ? current_.src : current_.dst;
      row_off_ = 0;
      spm_addr_ = current_.to_spm ? current_.dst : current_.src;
      if (trace_ != nullptr) {
        trace_->begin(track_, ev_xfer_, now, current_.ticket);
      }
    }
    const u32 want =
        static_cast<u32>(std::min<u64>(port_budget, current_.total_bytes() - granted_bytes_));
    const u32 got = std::min(want, left);
    granted_bytes_ += got;
    left -= got;
    port_budget -= got;
    backlog_bytes_ -= got;
    move_words(gmem, spm);
    if (granted_bytes_ == current_.total_bytes()) {
      completing_.push_back(Completion{now + gmem_latency_, current_.waker, current_.ticket});
      ++descriptors_completed_;
      active_ = false;
      if (trace_ != nullptr) {
        trace_->end(track_, ev_xfer_, now, current_.ticket);
      }
    }
    if (got < want) {
      break;  // the claim is spent
    }
  }
  MP3D_ASSERT(left == 0);
  bytes_moved_ += grant;
}

void DmaEngine::stream(u64 bytes, GlobalMemory& gmem, DmaSpmPort& spm) {
  MP3D_ASSERT(bytes < ungranted());
  granted_bytes_ += bytes;
  backlog_bytes_ -= bytes;
  bytes_moved_ += bytes;
  move_words(gmem, spm);
}

void DmaEngine::move_words(GlobalMemory& gmem, DmaSpmPort& spm) {
  // The gmem side walks row by row, the SPM side linearly, so a row piece
  // is one block on both sides.
  constexpr u32 kBlockWords = 256;
  std::array<u32, kBlockWords> block;
  while (moved_bytes_ + 4 <= granted_bytes_) {
    const u32 bytes = static_cast<u32>(std::min<u64>(
        {(granted_bytes_ - moved_bytes_) & ~u64{3}, current_.bytes_per_row - row_off_,
         kBlockWords * 4}));
    const std::span<u32> words(block.data(), bytes / 4);
    const u32 gmem_addr = gmem_row_ + row_off_;
    if (current_.to_spm) {
      gmem.read_words(gmem_addr, words);
      spm.dma_write_spm(spm_addr_, words);
    } else {
      spm.dma_read_spm(spm_addr_, words);
      gmem.write_words(gmem_addr, words);
    }
    moved_bytes_ += bytes;
    spm_addr_ += bytes;
    row_off_ += bytes;
    if (row_off_ == current_.bytes_per_row) {
      row_off_ = 0;
      gmem_row_ += current_.gmem_stride;
    }
  }
}

bool DmaEngine::overlaps(const DmaEngine& other) const {
  const auto gmem_end = [](const DmaDescriptor& d) {
    return u64{d.to_spm ? d.src : d.dst} + u64{d.rows - 1} * d.gmem_stride + d.bytes_per_row;
  };
  const auto spm_end = [](const DmaDescriptor& d) {
    return u64{d.to_spm ? d.dst : d.src} + d.total_bytes();
  };
  const DmaDescriptor& a = current_;
  const DmaDescriptor& b = other.current_;
  // A to-SPM transfer reads gmem and writes the SPM, a to-gmem one the
  // other way round; two reads of one word do not conflict.
  const bool gmem = !(a.to_spm && b.to_spm) && gmem_row_ < gmem_end(b) &&
                    other.gmem_row_ < gmem_end(a);
  const bool spm = (a.to_spm || b.to_spm) && spm_addr_ < spm_end(b) &&
                   other.spm_addr_ < spm_end(a);
  return gmem || spm;
}

DmaSubsystem::DmaSubsystem(const ClusterConfig& cfg)
    : num_groups_(cfg.num_groups),
      engines_per_group_(cfg.dma.engines_per_group),
      cfg_(cfg.dma),
      gmem_bytes_per_cycle_(cfg.gmem_bytes_per_cycle),
      gmem_latency_(cfg.gmem_latency) {
  engines_.reserve(static_cast<std::size_t>(num_groups_) * engines_per_group_);
  for (u32 g = 0; g < num_groups_; ++g) {
    for (u32 e = 0; e < engines_per_group_; ++e) {
      engines_.emplace_back(cfg_, gmem_bytes_per_cycle_, gmem_latency_);
      engine_group_.push_back(g);
    }
  }
  trackers_.resize(num_groups_);
  dispatch_rr_.assign(num_groups_, 0);
  run_grants_.resize((engines_.size() + 1) * engines_.size());
}

bool DmaSubsystem::can_accept(u32 group) const {
  for (u32 e = 0; e < engines_per_group_; ++e) {
    if (engines_[group * engines_per_group_ + e].can_accept()) {
      return true;
    }
  }
  return false;
}

void DmaSubsystem::push(u32 group, DmaDescriptor descriptor, sim::Cycle now) {
  descriptor.ticket = trackers_[group].next_ticket();
  for (u32 i = 0; i < engines_per_group_; ++i) {
    const u32 e = (dispatch_rr_[group] + i) % engines_per_group_;
    DmaEngine& engine = engines_[group * engines_per_group_ + e];
    if (engine.can_accept()) {
      engine.push(descriptor, now);
      backlog_bytes_ += descriptor.total_bytes();
      dispatch_rr_[group] = (e + 1) % engines_per_group_;
      return;
    }
  }
  MP3D_CHECK(false, "DMA push with every engine of group " << group << " full");
}

void DmaSubsystem::set_trace(obs::Trace* trace, std::vector<u32> engine_tracks) {
  MP3D_CHECK(trace == nullptr || engine_tracks.size() == engines_.size(),
             "DMA trace needs one track per engine");
  trace_ = trace;
  engine_tracks_ = std::move(engine_tracks);
  apply_trace();
}

void DmaSubsystem::apply_trace() {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    engines_[i].set_trace(trace_, trace_ == nullptr ? 0 : engine_tracks_[i]);
  }
}

u32 DmaSubsystem::pending(u32 group) const {
  u32 total = 0;
  for (u32 e = 0; e < engines_per_group_; ++e) {
    total += engines_[group * engines_per_group_ + e].pending();
  }
  return total;
}

template <typename Served>
u64 DmaSubsystem::grant(u32 rr, u64 budget, Served&& served) {
  // The service order rotates every cycle, so no engine permanently wins
  // the leftover channel budget when several groups stream at once.
  const u32 n = static_cast<u32>(engines_.size());
  u64 channel = budget;
  for (u32 i = 0, e = rr; i < n; ++i, e = e + 1 == n ? 0 : e + 1) {
    served(e, engines_[e].claim(channel));
  }
  return budget - channel;
}

u64 DmaSubsystem::serve(sim::Cycle now, u64 budget, GlobalMemory& gmem, DmaSpmPort& spm) {
  return grant(step_rr_, budget, [&](u32 e, u32 granted) {
    DmaEngine& engine = engines_[e];
    if (!engine.inert(now, granted)) {
      engine.step(now, granted, gmem, spm, trackers_[engine_group_[e]]);
    }
  });
}

void DmaSubsystem::account(u64 cycles, u64 grant) {
  const u32 n = static_cast<u32>(engines_.size());
  // A stepped cycle rotates by one without a division.
  step_rr_ = cycles == 1 ? (step_rr_ + 1 == n ? 0 : step_rr_ + 1)
                         : static_cast<u32>((step_rr_ + cycles) % n);
  backlog_bytes_ -= cycles * grant;
  if (grant > 0) {
    busy_cycles_ += cycles;  // subsystem-level: never exceeds elapsed cycles
  }
}

u32 DmaSubsystem::step(sim::Cycle now, GlobalMemory& gmem, DmaSpmPort& spm) {
  const u64 granted = serve(now, gmem.budget_left(), gmem, spm);
  gmem.claim_bulk(static_cast<u32>(granted), now);
  account(1, granted);
  return static_cast<u32>(granted);
}

u64 DmaSubsystem::run_length(sim::Cycle first, u64 cycles, u64 budget) {
  if (cycles == 1) {
    return 1;
  }
  u64 run = cycles;
  u32 active = 0;
  for (const DmaEngine& engine : engines_) {
    if (engine.next_retire() <= first || engine.activation_due()) {
      return 1;  // a retire or an activation is due
    }
    run = std::min<u64>(run, engine.next_retire() - first);
    active += engine.active() ? 1 : 0;
  }
  if (active > 1) {
    for (std::size_t a = 0; a < engines_.size(); ++a) {
      for (std::size_t b = a + 1; b < engines_.size(); ++b) {
        if (engines_[a].active() && engines_[b].active() && engines_[a].overlaps(engines_[b])) {
          return 1;  // the word moves must keep the per-cycle order
        }
      }
    }
  }
  // One rotation period of grants, summed per engine.
  const u32 n = static_cast<u32>(engines_.size());
  std::fill_n(run_grants_.begin(), n, 0);
  for (u32 j = 0; j < n; ++j) {
    const u64* sums = &run_grants_[j * n];
    u64* next = &run_grants_[(j + 1) * n];
    grant((step_rr_ + j) % n, budget, [&](u32 e, u32 granted) { next[e] = sums[e] + granted; });
  }
  // Each active engine keeps at least one byte of its descriptor
  // ungranted: whole periods first, then the cycles of the next one.
  for (u32 e = 0; e < n; ++e) {
    if (!engines_[e].active()) {
      continue;
    }
    const u64 period = run_grants_[n * n + e];  // > 0: it leads one cycle per period
    const u64 keep = engines_[e].ungranted() - 1;
    const u64 periods = keep / period;
    u32 extra = 0;
    while (extra + 1 < n && periods * period + run_grants_[(extra + 1) * n + e] <= keep) {
      ++extra;
    }
    run = std::min(run, periods * n + extra);
  }
  return std::max<u64>(run, 1);
}

DmaSubsystem::Run DmaSubsystem::stream(sim::Cycle first, u64 cycles, GlobalMemory& gmem,
                                       DmaSpmPort& spm) {
  const u64 budget = gmem.bytes_per_cycle();
  const u64 run = run_length(first, cycles, budget);
  // Bytes granted per cycle, the same in every cycle of the run. The
  // channel opens its cycles before the engines take their grants, as in
  // Cluster::step, so trace events keep their order.
  const u64 granted = grant(step_rr_, budget, [](u32, u32) {});
  gmem.stream(first, run, backlog_bytes_, static_cast<u32>(granted));
  if (run == 1) {
    serve(first, budget, gmem, spm);
  } else {
    const u32 n = static_cast<u32>(engines_.size());
    for (u32 e = 0; e < n; ++e) {
      const u64 bytes = run / n * run_grants_[n * n + e] + run_grants_[run % n * n + e];
      if (bytes > 0) {
        engines_[e].stream(bytes, gmem, spm);
      }
    }
  }
  account(run, granted);
  return Run{run, run * granted};
}

sim::Cycle DmaSubsystem::next_ready_cycle(sim::Cycle now) const {
  sim::Cycle next = sim::kNever;
  for (const DmaEngine& engine : engines_) {
    next = std::min(next, engine.next_ready_cycle(now));
  }
  return next;
}

bool DmaSubsystem::idle() const {
  return std::all_of(engines_.begin(), engines_.end(),
                     [](const DmaEngine& e) { return e.idle(); });
}

void DmaSubsystem::reset() {
  engines_.clear();
  for (u32 i = 0; i < num_groups_ * engines_per_group_; ++i) {
    engines_.emplace_back(cfg_, gmem_bytes_per_cycle_, gmem_latency_);
  }
  for (DmaRetireTracker& tracker : trackers_) {
    tracker.reset();
  }
  std::fill(dispatch_rr_.begin(), dispatch_rr_.end(), 0);
  step_rr_ = 0;
  backlog_bytes_ = 0;
  busy_cycles_ = 0;
  queue_full_stall_cycles_ = 0;
  apply_trace();  // reset() recreated the engines; re-attach their tracks
}

void DmaSubsystem::add_counters(sim::CounterSet& counters) const {
  u64 bytes = 0;
  u64 descriptors = 0;
  for (const DmaEngine& e : engines_) {
    bytes += e.bytes_moved();
    descriptors += e.descriptors_completed();
  }
  u64 retired = 0;
  for (const DmaRetireTracker& tracker : trackers_) {
    retired += tracker.watermark();
  }
  counters.set("dma.bytes", bytes);
  counters.set("dma.descriptors", descriptors);
  counters.set("dma.retired", retired);
  counters.set("dma.busy_cycles", busy_cycles_);
  counters.set("dma.queue_full_stall_cycles", queue_full_stall_cycles_);
}

}  // namespace mp3d::arch
