// SPDX-License-Identifier: Apache-2.0
#include "sys/sys_dma.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::sys {

SysDma::SysDma(const SysDmaConfig& cfg, ClusterIcn& icn) : cfg_(cfg), icn_(icn) {
  cfg_.validate();
  engines_.resize(icn_.num_clusters());
}

u64 SysDma::push(u32 engine, C2cDescriptor descriptor) {
  MP3D_CHECK(engine < num_engines(), "SysDma engine id out of range");
  MP3D_CHECK(descriptor.src_cluster < num_engines() &&
                 descriptor.dst_cluster < num_engines(),
             "C2cDescriptor cluster id out of range");
  MP3D_CHECK(descriptor.bytes > 0 && descriptor.bytes % 4 == 0,
             "C2cDescriptor bytes must be a positive multiple of 4");
  Engine& e = engines_[engine];
  MP3D_CHECK(!e.busy(), "SysDma engine still holds a transfer");
  descriptor.ticket = ++e.issued;
  e.current = descriptor;
  e.granted_bytes = 0;
  e.done_at = sim::kNever;
  return descriptor.ticket;
}

void SysDma::step_engine(Engine& engine, sim::Cycle now) {
  const C2cDescriptor& d = engine.current;
  if (engine.granting()) {
    const u64 remaining = d.bytes - engine.granted_bytes;
    const u32 ask = static_cast<u32>(
        std::min<u64>(remaining, cfg_.port_bytes_per_cycle));
    const u32 granted = icn_.claim(d.src_cluster, d.dst_cluster, ask, now);
    engine.granted_bytes += granted;
    bytes_moved_ += granted;
    if (engine.granted_bytes == d.bytes) {
      // The wire drains route_latency cycles after the last byte: this
      // very cycle on a zero-hop (home-local) route.
      engine.done_at = now + icn_.route_latency(d.src_cluster, d.dst_cluster);
    }
  }
  if (engine.busy() && engine.done_at <= now) {
    engine.retired = engine.issued;
    ++descriptors_completed_;
  }
}

void SysDma::step(sim::Cycle now) {
  const u32 n = num_engines();
  const u64 before = bytes_moved_;
  for (u32 i = 0; i < n; ++i) {
    step_engine(engines_[(step_rr_ + i) % n], now);
  }
  step_rr_ = n == 0 ? 0 : (step_rr_ + 1) % n;
  if (bytes_moved_ != before) {
    ++busy_cycles_;
  }
}

sim::Cycle SysDma::next_event_cycle(sim::Cycle now) const {
  sim::Cycle next = sim::kNever;
  for (const Engine& e : engines_) {
    if (e.granting()) {
      return now + 1;  // an engine claims link bytes every cycle
    }
    if (e.busy()) {
      next = std::min(next, e.done_at);
    }
  }
  return next;
}

bool SysDma::idle() const {
  return std::none_of(engines_.begin(), engines_.end(),
                      [](const Engine& e) { return e.busy(); });
}

void SysDma::reset_run_state() {
  std::fill(engines_.begin(), engines_.end(), Engine{});
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
