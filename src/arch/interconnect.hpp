// SPDX-License-Identifier: Apache-2.0
// MemPool's hierarchical interconnect.
//
// Topology (paper §II-B): within a group, tiles reach each other through a
// "local" 16x16 radix-4 butterfly; the four groups are connected pairwise
// by three further networks ("east", "north", "northeast" — one per group
// XOR distance in the 2x2 arrangement). Each tile owns, per network, one
// remote request port and one remote response port.
//
// Model: each (tile, network, direction) port injects one flit per cycle
// into a pipeline of `local_net_pipe` / `global_net_pipe` register stages.
// Injection never blocks (the pipeline takes a flit every cycle), so a
// flit's inject cycle is known when it is pushed: the later of the first
// cycle its direction still steps and the previous flit's inject cycle
// plus one. Each port therefore keeps one FIFO ring of flits stamped at
// push with their arrival cycle (inject cycle + pipe latency), and no
// per-cycle step moves flits from a queue into a pipe. The flits not yet
// injected are the port's egress queue, whose finite depth
// (`port_queue_depth`) back-pressures the cores and banks. Delivery at the
// destination is limited to one flit per (tile, network, direction) per
// cycle (the tile's single remote port), with head-of-line blocking — the
// first-order contention behaviour of the butterfly under the paper's
// interleaved-SPM traffic. Contended ingress ports go to the source port
// visited first, in port order starting at `now % ports` and wrapping.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "arch/bank.hpp"
#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "sim/counters.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/types.hpp"

namespace mp3d::arch {

class Interconnect {
 public:
  static constexpr u32 kNumNetworks = 4;  ///< local + 3 inter-group

  explicit Interconnect(const ClusterConfig& cfg);

  /// Network used from tile `src` to tile `dst` (must differ in tile or
  /// group): 0 = intra-group butterfly, 1..3 = inter-group (group XOR).
  u32 network(u32 src_tile, u32 dst_tile) const;

  /// Zero-load one-way latency of `net` in cycles (pipe stages).
  u32 pipe_latency(u32 net) const { return net == 0 ? local_pipe_ : global_pipe_; }

  /// Room in the port's egress queue for a flit pushed at cycle `now`.
  bool can_push_request(u32 src_tile, u32 net, sim::Cycle now) const;
  bool can_push_response(u32 src_tile, u32 net, sim::Cycle now) const;

  /// Queue a flit at cycle `now`; it injects at the first cycle its
  /// direction has not stepped yet and its port has not injected in.
  /// Pre: can_push_request(src_tile, network(src_tile, dst_tile), now).
  void push_request(u32 src_tile, u32 dst_tile, BankRequest&& request, sim::Cycle now);
  /// Pre: can_push_response(src_tile, network(src_tile, dst_tile), now).
  void push_response(u32 src_tile, u32 dst_tile, MemResponse&& response, sim::Cycle now);

  using RequestSink = std::function<void(u32 dst_tile, BankRequest&&)>;
  using ResponseSink = std::function<void(u32 dst_tile, MemResponse&&)>;

  /// Step cycle `now` of one direction: deliver the flits that have
  /// arrived (ingress-port limited). A direction must be stepped every
  /// cycle while it holds a flit not yet injected (next_event_cycle pins
  /// `now + 1` then).
  void step_requests(sim::Cycle now, const RequestSink& sink);
  void step_responses(sim::Cycle now, const ResponseSink& sink);

  bool idle() const;

  /// Next cycle any flit moves, for the cluster's idle-cycle fast-forward.
  /// A flit not yet injected injects next cycle (`now + 1`); otherwise the
  /// answer is the earliest arrival cycle at a port's front — which may lie
  /// in the past when delivery was head-of-line blocked, naturally
  /// forbidding a jump — or kNever when every port is drained. The
  /// per-cycle delivery rotation is derived from the cycle number itself,
  /// so it needs no catch-up on a jump. Reads the live-port masks, so a
  /// drained network answers without touching a port (this is called on
  /// every failed fast-forward attempt).
  sim::Cycle next_event_cycle(sim::Cycle now) const;

  void add_counters(sim::CounterSet& counters) const;

  /// Drop in-flight flits and zero the statistics. Called between program
  /// loads on one cluster.
  void reset_run_state();

 private:
  template <typename T>
  struct Flit {
    sim::Cycle ready_at = 0;  ///< arrival cycle: inject cycle + pipe latency
    u32 dst = 0;
    T payload{};
  };

  template <typename T>
  struct Port {
    explicit Port(std::size_t slots) : flits(slots) {}
    /// Queued and in-flight flits in push order; arrival cycles ascend.
    sim::RingFifo<Flit<T>> flits;
    sim::Cycle last_inject = 0;  ///< inject cycle of the newest flit
  };

  /// One bit per port, indexed like the ports (port_index).
  using PortMask = std::vector<u64>;

  /// The ports of one direction (requests or responses) and the mask of
  /// the live ones, so a cycle costs what is in flight, not the port count.
  template <typename T>
  struct Direction {
    std::vector<Port<T>> ports;
    PortMask live;           ///< ports holding a flit
    PortMask ingress_taken;  ///< ingress ports that took a flit this cycle
    sim::Cycle stepped = 0;      ///< last cycle this direction stepped
    sim::Cycle last_inject = 0;  ///< latest inject cycle of any flit
    u64 pushed = 0;       ///< flits pushed (noc.*_flits adds injected ones)
    u64 hol_blocked = 0;  ///< arrived flits held back by a taken ingress port

    /// First cycle a flit pushed at `now` can inject in: `now`, unless
    /// this direction has already stepped it.
    sim::Cycle first_open(sim::Cycle now) const { return std::max(now, stepped + 1); }
    bool idle() const;
    void clear();
  };

  u32 port_index(u32 tile, u32 net) const { return tile * kNumNetworks + net; }

  /// Flits of `port` not yet injected at `first_open`: their inject cycles
  /// run consecutively from `first_open` to the port's last one.
  template <typename T>
  static std::size_t queued(const Port<T>& port, sim::Cycle first_open) {
    return port.last_inject >= first_open ? port.last_inject - first_open + 1 : 0;
  }

  template <typename T>
  void push(Direction<T>& dir, u32 src_tile, u32 dst_tile, T&& payload, sim::Cycle now);

  template <typename T, typename SinkT>
  void step_ports(Direction<T>& dir, sim::Cycle now, const SinkT& sink);

  /// Flits pushed and injected: pushed minus those with an inject cycle
  /// after the direction's last step.
  template <typename T>
  u64 injected(const Direction<T>& dir) const;

  u32 group_shift_;  ///< log2(tiles_per_group): tile -> group
  u32 num_tiles_;
  u32 local_pipe_;
  u32 global_pipe_;
  std::size_t queue_depth_;  ///< egress queue entries per port

  Direction<BankRequest> req_;
  Direction<MemResponse> resp_;

  // Hops per network level (request + response flits combined): local =
  // intra-group butterfly traversals, global = inter-group network
  // traversals. The energy model charges each level a different wire
  // length, so they are counted separately.
  u64 local_hops_ = 0;
  u64 global_hops_ = 0;
};

}  // namespace mp3d::arch
