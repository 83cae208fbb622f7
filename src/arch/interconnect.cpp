// SPDX-License-Identifier: Apache-2.0
#include "arch/interconnect.hpp"

namespace mp3d::arch {

void Interconnect::Direction::grow() {
  const u32 slots = mask + 1;
  const std::size_t ports = head.size();
  std::vector<Flit> next(slab.size() * 2);
  for (std::size_t p = 0; p < ports; ++p) {
    const u32 n = static_cast<u32>(size(p));
    for (u32 i = 0; i < n; ++i) {
      next[(p << (shift + 1)) + i] = at(p, i);
    }
    head[p] = 0;
    tail[p] = n;
  }
  slab = std::move(next);
  ++shift;
  mask = 2 * slots - 1;
}

void Interconnect::Direction::clear() {
  std::fill(head.begin(), head.end(), 0);
  std::fill(tail.begin(), tail.end(), 0);
  std::fill(last_inject.begin(), last_inject.end(), 0);
  std::fill(live.begin(), live.end(), 0);
  stepped = 0;
  newest_inject = 0;
  pushed = 0;
  hol_blocked = 0;
}

Interconnect::Interconnect(const ClusterConfig& cfg)
    : group_shift_(log2_exact(cfg.tiles_per_group)),
      num_tiles_(cfg.num_tiles()),
      num_ports_(cfg.num_tiles() * kNumNetworks),
      local_pipe_(cfg.local_net_pipe),
      global_pipe_(cfg.global_net_pipe),
      queue_depth_(cfg.port_queue_depth) {
  MP3D_CHECK(is_pow2(cfg.tiles_per_group), "tiles per group must be a power of two");
  const std::size_t mask_words = (num_ports_ + kWordBits - 1) / kWordBits;
  // Room for a full egress queue plus a full pipeline; head-of-line
  // blocking can grow the rings past it.
  const u32 slots =
      std::bit_ceil(static_cast<u32>(queue_depth_) + std::max(local_pipe_, global_pipe_) + 1);
  for (Direction* dir : {&req_, &resp_}) {
    dir->shift = static_cast<u32>(std::countr_zero(slots));
    dir->mask = slots - 1;
    dir->slab.resize(std::size_t{num_ports_} * slots);
    dir->head.assign(num_ports_, 0);
    dir->tail.assign(num_ports_, 0);
    dir->last_inject.assign(num_ports_, 0);
    dir->live.assign(mask_words, 0);
    dir->ingress_taken.assign(mask_words, 0);
  }
}

sim::Cycle Interconnect::next_event_cycle(sim::Cycle now) const {
  if (req_.newest_inject >= req_.first_open(now) ||
      resp_.newest_inject >= resp_.first_open(now)) {
    return now + 1;  // a queued flit injects into its pipeline next step
  }
  sim::Cycle next = sim::kNever;
  for (const Direction* dir : {&req_, &resp_}) {
    for_each_port(dir->live, 0, [&](std::size_t p) {
      next = std::min(next, dir->at(p, 0).ready_at);
    });
  }
  return next;
}

void Interconnect::reset_run_state() {
  req_.clear();
  resp_.clear();
  local_hops_ = 0;
  global_hops_ = 0;
}

u64 Interconnect::injected(const Direction& dir) const {
  u64 waiting = 0;
  for_each_port(dir.live, 0, [&](std::size_t p) {
    const u32 latency = pipe_latency(static_cast<u32>(p % kNumNetworks));
    for (auto i = static_cast<u32>(dir.size(p));
         i > 0 && dir.at(p, i - 1).ready_at - latency > dir.stepped; --i) {
      ++waiting;
    }
  });
  return dir.pushed - waiting;
}

void Interconnect::add_counters(sim::CounterSet& counters) const {
  counters.set("noc.req_flits", injected(req_));
  counters.set("noc.resp_flits", injected(resp_));
  counters.set("noc.req_hol_blocked", req_.hol_blocked);
  counters.set("noc.resp_hol_blocked", resp_.hol_blocked);
  counters.set("noc.local_hops", local_hops_);
  counters.set("noc.global_hops", global_hops_);
}

}  // namespace mp3d::arch
