// SPDX-License-Identifier: Apache-2.0
#include "sys/sys_dma.hpp"

#include <algorithm>

#include "arch/global_mem.hpp"
#include "common/assert.hpp"

namespace mp3d::sys {

SysDma::SysDma(const SysDmaConfig& cfg, ClusterIcn& icn,
               std::vector<arch::GlobalMemory*> shards)
    : cfg_(cfg), icn_(icn), shards_(std::move(shards)) {
  cfg_.validate();
  MP3D_CHECK(shards_.size() == icn_.num_clusters(),
             "SysDma needs one gmem shard per cluster");
  engines_.resize(shards_.size());
  trackers_.resize(shards_.size());
}

bool SysDma::can_accept(u32 engine) const {
  const Engine& e = engines_[engine];
  return e.queue.size() + (e.active ? 1 : 0) < cfg_.queue_depth;
}

u64 SysDma::push(u32 engine, C2cDescriptor descriptor) {
  MP3D_CHECK(engine < num_engines(), "SysDma engine id out of range");
  MP3D_CHECK(can_accept(engine), "SysDma engine queue full");
  MP3D_CHECK(descriptor.src_cluster < num_engines() &&
                 descriptor.dst_cluster < num_engines(),
             "C2cDescriptor cluster id out of range");
  MP3D_CHECK(descriptor.bytes > 0 && descriptor.bytes % 4 == 0,
             "C2cDescriptor bytes must be a positive multiple of 4");
  MP3D_CHECK((descriptor.src_addr | descriptor.dst_addr) % 4 == 0,
             "C2cDescriptor addresses must be word aligned");
  descriptor.ticket = trackers_[engine].next_ticket();
  Engine& e = engines_[engine];
  e.backlog_bytes += descriptor.bytes;
  e.queue.push_back(descriptor);
  return descriptor.ticket;
}

void SysDma::move_word(const C2cDescriptor& d, u64 word_index) {
  const u32 offset = static_cast<u32>(word_index * 4);
  const u32 value = shards_[d.src_cluster]->read_word(d.src_addr + offset);
  shards_[d.dst_cluster]->write_word(d.dst_addr + offset, value);
}

void SysDma::step_engine(u32 e, sim::Cycle now) {
  Engine& engine = engines_[e];
  // Retire completions whose wire latency has passed (done_at can be
  // non-monotone across routes of different hop counts; the tracker's
  // watermark stays in ticket order regardless).
  while (!engine.completing.empty()) {
    auto it = std::min_element(
        engine.completing.begin(), engine.completing.end(),
        [](const Completion& a, const Completion& b) { return a.done_at < b.done_at; });
    if (it->done_at > now) {
      break;
    }
    trackers_[e].note_retired(it->ticket);
    ++descriptors_completed_;
    engine.completing.erase(it);
  }
  if (!engine.active) {
    if (engine.queue.empty()) {
      return;
    }
    engine.current = engine.queue.front();
    engine.queue.pop_front();
    engine.active = true;
    engine.granted_bytes = 0;
    engine.moved_words = 0;
  }
  const C2cDescriptor& d = engine.current;
  const u64 remaining = d.bytes - engine.granted_bytes;
  const u32 ask = static_cast<u32>(
      std::min<u64>(remaining, cfg_.port_bytes_per_cycle));
  const u32 granted = icn_.claim(d.src_cluster, d.dst_cluster, ask, now);
  if (granted == 0) {
    return;
  }
  engine.granted_bytes += granted;
  engine.backlog_bytes -= granted;
  bytes_moved_ += granted;
  const u64 words_ready = engine.granted_bytes / 4;
  while (engine.moved_words < words_ready) {
    move_word(d, engine.moved_words);
    ++engine.moved_words;
  }
  if (engine.granted_bytes == d.bytes) {
    const u32 wire = icn_.route_latency(d.src_cluster, d.dst_cluster);
    if (wire == 0) {
      // Zero-hop route (home-local copy): the descriptor completes the
      // cycle its last byte is granted — no wire to drain.
      trackers_[e].note_retired(d.ticket);
      ++descriptors_completed_;
    } else {
      engine.completing.push_back(Completion{now + wire, d.ticket});
    }
    engine.active = false;
  }
}

void SysDma::step(sim::Cycle now) {
  const u32 n = num_engines();
  const u64 before = bytes_moved_;
  for (u32 i = 0; i < n; ++i) {
    step_engine((step_rr_ + i) % n, now);
  }
  step_rr_ = n == 0 ? 0 : (step_rr_ + 1) % n;
  if (bytes_moved_ != before) {
    ++busy_cycles_;
  }
}

sim::Cycle SysDma::next_event_cycle(sim::Cycle now) const {
  sim::Cycle next = sim::kNever;
  for (const Engine& e : engines_) {
    if (e.backlog_bytes > 0) {
      return now + 1;  // an engine claims link bytes every cycle
    }
    for (const Completion& c : e.completing) {
      next = std::min(next, c.done_at);
    }
  }
  return next;
}

bool SysDma::idle() const {
  return std::all_of(engines_.begin(), engines_.end(), [](const Engine& e) {
    return !e.active && e.queue.empty() && e.completing.empty();
  });
}

u64 SysDma::backlog_bytes() const {
  u64 total = 0;
  for (const Engine& e : engines_) {
    total += e.backlog_bytes;
  }
  return total;
}

void SysDma::reset_run_state() {
  for (Engine& e : engines_) {
    e = Engine{};
  }
  for (arch::DmaRetireTracker& tracker : trackers_) {
    tracker.reset();
  }
  step_rr_ = 0;
  bytes_moved_ = 0;
  descriptors_completed_ = 0;
  busy_cycles_ = 0;
}

void SysDma::add_counters(sim::CounterSet& counters) const {
  counters.set("sys.dma.bytes", bytes_moved_);
  counters.set("sys.dma.descriptors", descriptors_completed_);
  counters.set("sys.dma.busy_cycles", busy_cycles_);
}

}  // namespace mp3d::sys
