// SPDX-License-Identifier: Apache-2.0
#include "arch/interconnect.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::arch {

Interconnect::Interconnect(const ClusterConfig& cfg)
    : tiles_per_group_(cfg.tiles_per_group),
      num_tiles_(cfg.num_tiles()),
      local_pipe_(cfg.local_net_pipe),
      global_pipe_(cfg.global_net_pipe) {
  req_ports_.reserve(static_cast<std::size_t>(num_tiles_) * kNumNetworks);
  resp_ports_.reserve(static_cast<std::size_t>(num_tiles_) * kNumNetworks);
  for (u32 t = 0; t < num_tiles_; ++t) {
    for (u32 n = 0; n < kNumNetworks; ++n) {
      const u32 latency = pipe_latency(n);
      req_ports_.emplace_back(cfg.port_queue_depth, latency);
      resp_ports_.emplace_back(cfg.port_queue_depth, latency);
    }
  }
  req_ingress_budget_.assign(static_cast<std::size_t>(num_tiles_) * kNumNetworks, 0);
  resp_ingress_budget_.assign(static_cast<std::size_t>(num_tiles_) * kNumNetworks, 0);
}

u32 Interconnect::network(u32 src_tile, u32 dst_tile) const {
  MP3D_ASSERT(src_tile < num_tiles_ && dst_tile < num_tiles_);
  const u32 src_group = src_tile / tiles_per_group_;
  const u32 dst_group = dst_tile / tiles_per_group_;
  if (src_group == dst_group) {
    MP3D_ASSERT_MSG(src_tile != dst_tile, "local accesses do not use the interconnect");
    return 0;
  }
  // 2x2 group arrangement: XOR distance 1 = east/west neighbor, 2 =
  // north/south, 3 = diagonal. With fewer than 4 groups the XOR still
  // yields a unique network per pair.
  return src_group ^ dst_group;
}

bool Interconnect::can_push_request(u32 src_tile, u32 net) const {
  return !req_ports_[port_index(src_tile, net)].queue.full();
}

bool Interconnect::can_push_response(u32 src_tile, u32 net) const {
  return !resp_ports_[port_index(src_tile, net)].queue.full();
}

void Interconnect::push_request(u32 src_tile, u32 dst_tile, BankRequest&& request) {
  const u32 net = network(src_tile, dst_tile);
  (net == 0 ? local_hops_ : global_hops_) += 1;
  const bool ok = req_ports_[port_index(src_tile, net)].queue.try_push(
      Flit<BankRequest>{dst_tile, std::move(request)});
  MP3D_ASSERT_MSG(ok, "push_request without can_push_request check");
  ++in_flight_;
}

void Interconnect::push_response(u32 src_tile, u32 dst_tile, MemResponse&& response) {
  const u32 net = network(src_tile, dst_tile);
  (net == 0 ? local_hops_ : global_hops_) += 1;
  const bool ok = resp_ports_[port_index(src_tile, net)].queue.try_push(
      Flit<MemResponse>{dst_tile, std::move(response)});
  MP3D_ASSERT_MSG(ok, "push_response without can_push_response check");
  ++in_flight_;
}

template <typename T, typename SinkT>
void Interconnect::step_ports(std::vector<Port<T>>& ports, sim::Cycle now,
                              const SinkT& sink, std::vector<u8>& ingress_budget,
                              u64& moved, u64& hol_blocked) {
  // Refresh ingress budgets: one flit per (tile, network) per cycle.
  std::fill(ingress_budget.begin(), ingress_budget.end(), 1);
  // Inject: each egress port forwards one queued flit into its pipe.
  for (Port<T>& port : ports) {
    if (!port.queue.empty()) {
      port.pipe.push(now, port.queue.pop());
      ++moved;
    }
  }
  // Deliver: drain arrived flits, honoring the destination port rate. The
  // starting port rotates with the cycle count for long-run fairness.
  const std::size_t n = ports.size();
  const std::size_t start = static_cast<std::size_t>(now) % n;
  for (std::size_t k = 0; k < n; ++k) {
    Port<T>& port = ports[(start + k) % n];
    while (port.pipe.ready(now)) {
      const u32 dst = port.pipe.front().dst;
      const u32 net = static_cast<u32>((start + k) % n) % kNumNetworks;
      u8& budget = ingress_budget[port_index(dst, net)];
      if (budget == 0) {
        ++hol_blocked;
        break;  // head-of-line blocking on the destination port
      }
      --budget;
      Flit<T> flit = port.pipe.pop(now);
      MP3D_ASSERT(in_flight_ > 0);
      --in_flight_;
      sink(flit.dst, std::move(flit.payload));
    }
  }
}

void Interconnect::step_requests(sim::Cycle now, const RequestSink& sink) {
  if (in_flight_ == 0) {
    return;  // nothing queued or piped in either direction
  }
  step_ports(req_ports_, now, sink, req_ingress_budget_, req_flits_, req_hol_blocked_);
}

void Interconnect::step_responses(sim::Cycle now, const ResponseSink& sink) {
  if (in_flight_ == 0) {
    return;
  }
  step_ports(resp_ports_, now, sink, resp_ingress_budget_, resp_flits_,
             resp_hol_blocked_);
}

sim::Cycle Interconnect::next_event_cycle(sim::Cycle now) const {
  if (in_flight_ == 0) {
    return sim::kNever;  // O(1) fast path: every port is drained
  }
  sim::Cycle next = sim::kNever;
  const auto port_next = [&](const auto& port) {
    if (!port.queue.empty()) {
      next = now + 1;  // injects into its pipe next step
    } else if (!port.pipe.empty()) {
      next = std::min(next, port.pipe.front_ready_at());
    }
  };
  for (const auto& port : req_ports_) {
    port_next(port);
  }
  for (const auto& port : resp_ports_) {
    port_next(port);
  }
  return next;
}

bool Interconnect::idle() const { return in_flight_ == 0; }

void Interconnect::reset_run_state() {
  for (auto& port : req_ports_) {
    port.queue.clear();
    port.pipe.clear();
  }
  for (auto& port : resp_ports_) {
    port.queue.clear();
    port.pipe.clear();
  }
  in_flight_ = 0;
  req_flits_ = 0;
  resp_flits_ = 0;
  req_hol_blocked_ = 0;
  resp_hol_blocked_ = 0;
  local_hops_ = 0;
  global_hops_ = 0;
}

void Interconnect::add_counters(sim::CounterSet& counters) const {
  counters.set("noc.req_flits", req_flits_);
  counters.set("noc.resp_flits", resp_flits_);
  counters.set("noc.req_hol_blocked", req_hol_blocked_);
  counters.set("noc.resp_hol_blocked", resp_hol_blocked_);
  counters.set("noc.local_hops", local_hops_);
  counters.set("noc.global_hops", global_hops_);
}

}  // namespace mp3d::arch
