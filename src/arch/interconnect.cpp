// SPDX-License-Identifier: Apache-2.0
#include "arch/interconnect.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace mp3d::arch {

namespace {

constexpr std::size_t kWordBits = 64;

u64 port_bit(std::size_t port) { return u64{1} << (port % kWordBits); }

bool any(const std::vector<u64>& mask) {
  return std::any_of(mask.begin(), mask.end(), [](u64 word) { return word != 0; });
}

/// Calls `visit(port)` for every set bit of `mask`, in port order starting
/// at port `start` and wrapping around. Each mask word is read when the
/// walk reaches it, so `visit` may clear the bit of the port it visits.
template <typename F>
void for_each_port(const std::vector<u64>& mask, std::size_t start, F&& visit) {
  const std::size_t words = mask.size();
  const std::size_t first = start / kWordBits;
  const u64 from_start = ~u64{0} << (start % kWordBits);
  // words + 1 steps: the start word's upper part first, its lower part last.
  for (std::size_t i = 0; i <= words; ++i) {
    const std::size_t w = first + i < words ? first + i : first + i - words;
    u64 bits = mask[w];
    if (i == 0) {
      bits &= from_start;
    } else if (i == words) {
      bits &= ~from_start;
    }
    for (; bits != 0; bits &= bits - 1) {
      visit(w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

template <typename T>
bool Interconnect::Direction<T>::idle() const {
  return !any(live);
}

template <typename T>
void Interconnect::Direction<T>::clear() {
  for (auto& port : ports) {
    port.flits.clear();
    port.last_inject = 0;
  }
  std::fill(live.begin(), live.end(), 0);
  stepped = 0;
  last_inject = 0;
  pushed = 0;
  hol_blocked = 0;
}

Interconnect::Interconnect(const ClusterConfig& cfg)
    : group_shift_(log2_exact(cfg.tiles_per_group)),
      num_tiles_(cfg.num_tiles()),
      local_pipe_(cfg.local_net_pipe),
      global_pipe_(cfg.global_net_pipe),
      queue_depth_(cfg.port_queue_depth) {
  MP3D_CHECK(is_pow2(cfg.tiles_per_group), "tiles per group must be a power of two");
  const std::size_t num_ports = static_cast<std::size_t>(num_tiles_) * kNumNetworks;
  const std::size_t mask_words = (num_ports + kWordBits - 1) / kWordBits;
  const auto build = [&](auto& dir) {
    dir.ports.reserve(num_ports);
    for (u32 t = 0; t < num_tiles_; ++t) {
      for (u32 n = 0; n < kNumNetworks; ++n) {
        // Room for a full egress queue plus a full pipeline; head-of-line
        // blocking can grow the ring past it.
        dir.ports.emplace_back(queue_depth_ + pipe_latency(n) + 1);
      }
    }
    dir.live.assign(mask_words, 0);
    dir.ingress_taken.assign(mask_words, 0);
  };
  build(req_);
  build(resp_);
}

u32 Interconnect::network(u32 src_tile, u32 dst_tile) const {
  MP3D_ASSERT(src_tile < num_tiles_ && dst_tile < num_tiles_);
  const u32 src_group = src_tile >> group_shift_;
  const u32 dst_group = dst_tile >> group_shift_;
  if (src_group == dst_group) {
    MP3D_ASSERT_MSG(src_tile != dst_tile, "local accesses do not use the interconnect");
    return 0;
  }
  // 2x2 group arrangement: XOR distance 1 = east/west neighbor, 2 =
  // north/south, 3 = diagonal. With fewer than 4 groups the XOR still
  // yields a unique network per pair.
  return src_group ^ dst_group;
}

bool Interconnect::can_push_request(u32 src_tile, u32 net, sim::Cycle now) const {
  return queued(req_.ports[port_index(src_tile, net)], req_.first_open(now)) < queue_depth_;
}

bool Interconnect::can_push_response(u32 src_tile, u32 net, sim::Cycle now) const {
  return queued(resp_.ports[port_index(src_tile, net)], resp_.first_open(now)) < queue_depth_;
}

template <typename T>
void Interconnect::push(Direction<T>& dir, u32 src_tile, u32 dst_tile, T&& payload,
                        sim::Cycle now) {
  const u32 net = network(src_tile, dst_tile);
  (net == 0 ? local_hops_ : global_hops_) += 1;
  const u32 p = port_index(src_tile, net);
  Port<T>& port = dir.ports[p];
  const sim::Cycle first = dir.first_open(now);
  MP3D_ASSERT_MSG(queued(port, first) < queue_depth_, "push to a full egress queue");
  const sim::Cycle inject = std::max(first, port.last_inject + 1);
  const sim::Cycle ready_at = inject + pipe_latency(net);
  // Arrival cycles ascend along a port because inject cycles do.
  MP3D_ASSERT(port.flits.empty() || port.flits.back().ready_at <= ready_at);
  port.flits.push_back(Flit<T>{ready_at, dst_tile, std::move(payload)});
  port.last_inject = inject;
  dir.last_inject = std::max(dir.last_inject, inject);
  ++dir.pushed;
  dir.live[p / kWordBits] |= port_bit(p);
}

void Interconnect::push_request(u32 src_tile, u32 dst_tile, BankRequest&& request,
                                sim::Cycle now) {
  push(req_, src_tile, dst_tile, std::move(request), now);
}

void Interconnect::push_response(u32 src_tile, u32 dst_tile, MemResponse&& response,
                                 sim::Cycle now) {
  push(resp_, src_tile, dst_tile, std::move(response), now);
}

template <typename T, typename SinkT>
void Interconnect::step_ports(Direction<T>& dir, sim::Cycle now, const SinkT& sink) {
  dir.stepped = now;
  if (dir.idle()) {
    return;
  }
  // Deliver arrived flits, one per destination ingress port per cycle. The
  // starting port rotates with the cycle count for long-run fairness.
  std::fill(dir.ingress_taken.begin(), dir.ingress_taken.end(), 0);
  const auto start = static_cast<std::size_t>(now % dir.ports.size());
  for_each_port(dir.live, start, [&](std::size_t p) {
    auto& flits = dir.ports[p].flits;
    const u32 net = static_cast<u32>(p % kNumNetworks);
    while (!flits.empty() && flits.front().ready_at <= now) {
      const u32 ingress = port_index(flits.front().dst, net);
      u64& taken = dir.ingress_taken[ingress / kWordBits];
      if ((taken & port_bit(ingress)) != 0) {
        ++dir.hol_blocked;
        break;  // head-of-line blocking on the destination port
      }
      taken |= port_bit(ingress);
      Flit<T> flit = flits.pop_front();
      sink(flit.dst, std::move(flit.payload));
    }
    if (flits.empty()) {
      dir.live[p / kWordBits] &= ~port_bit(p);
    }
  });
}

void Interconnect::step_requests(sim::Cycle now, const RequestSink& sink) {
  step_ports(req_, now, sink);
}

void Interconnect::step_responses(sim::Cycle now, const ResponseSink& sink) {
  step_ports(resp_, now, sink);
}

sim::Cycle Interconnect::next_event_cycle(sim::Cycle now) const {
  if (req_.last_inject >= req_.first_open(now) || resp_.last_inject >= resp_.first_open(now)) {
    return now + 1;  // a queued flit injects into its pipeline next step
  }
  sim::Cycle next = sim::kNever;
  for_each_port(req_.live, 0, [&](std::size_t p) {
    next = std::min(next, req_.ports[p].flits.front().ready_at);
  });
  for_each_port(resp_.live, 0, [&](std::size_t p) {
    next = std::min(next, resp_.ports[p].flits.front().ready_at);
  });
  return next;
}

bool Interconnect::idle() const { return req_.idle() && resp_.idle(); }

void Interconnect::reset_run_state() {
  req_.clear();
  resp_.clear();
  local_hops_ = 0;
  global_hops_ = 0;
}

template <typename T>
u64 Interconnect::injected(const Direction<T>& dir) const {
  u64 waiting = 0;
  for_each_port(dir.live, 0, [&](std::size_t p) {
    const auto& flits = dir.ports[p].flits;
    const u32 latency = pipe_latency(static_cast<u32>(p % kNumNetworks));
    for (std::size_t i = flits.size(); i > 0 && flits[i - 1].ready_at - latency > dir.stepped;
         --i) {
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
