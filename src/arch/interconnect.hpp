// SPDX-License-Identifier: Apache-2.0
// MemPool's hierarchical interconnect.
//
// Topology (paper §II-B): within a group, tiles reach each other through a
// "local" 16x16 radix-4 butterfly; the four groups are connected pairwise
// by three further networks ("east", "north", "northeast" — one per group
// XOR distance in the 2x2 arrangement). Each tile owns, per network, one
// remote request port and one remote response port.
//
// Model: per (tile, network, direction) an egress queue (1 flit/cycle
// drain, finite depth = back-pressure to the cores) feeding a pipeline of
// `local_net_pipe` / `global_net_pipe` register stages; delivery at the
// destination is limited to one flit per (tile, network, direction) per
// cycle (the tile's single remote port), with head-of-line blocking —
// the first-order contention behaviour of the butterfly under the paper's
// interleaved-SPM traffic. Contended ingress ports go to the source port
// visited first, in port order starting at `now % ports` and wrapping.
#pragma once

#include <functional>
#include <vector>

#include "arch/bank.hpp"
#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "sim/counters.hpp"
#include "sim/delay_pipe.hpp"
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

  bool can_push_request(u32 src_tile, u32 net) const;
  bool can_push_response(u32 src_tile, u32 net) const;

  /// Pre: can_push_request(src_tile, net).
  void push_request(u32 src_tile, u32 dst_tile, BankRequest&& request);
  /// Pre: can_push_response(src_tile, net).
  void push_response(u32 src_tile, u32 dst_tile, MemResponse&& response);

  using RequestSink = std::function<void(u32 dst_tile, BankRequest&&)>;
  using ResponseSink = std::function<void(u32 dst_tile, MemResponse&&)>;

  /// Move request flits one cycle: inject from egress queues into the
  /// pipes, then deliver arrived flits (ingress-port limited).
  void step_requests(sim::Cycle now, const RequestSink& sink);
  void step_responses(sim::Cycle now, const ResponseSink& sink);

  bool idle() const;

  /// Next cycle any flit moves, for the cluster's idle-cycle fast-forward.
  /// A non-empty egress queue injects next cycle (`now + 1`); otherwise the
  /// answer is the earliest pipe-front ready cycle — which may lie in the
  /// past when delivery was head-of-line blocked, naturally forbidding a
  /// jump — or kNever when every port is drained. The per-cycle delivery
  /// rotation is derived from the cycle number itself, so it needs no
  /// catch-up on a jump. Reads the live-port masks, so a drained network
  /// answers without touching a port (this is called on every failed
  /// fast-forward attempt).
  sim::Cycle next_event_cycle(sim::Cycle now) const;

  void add_counters(sim::CounterSet& counters) const;

  /// Drop in-flight flits and zero the statistics. Called between program
  /// loads on one cluster.
  void reset_run_state();

 private:
  template <typename T>
  struct Flit {
    u32 dst = 0;
    T payload;
  };

  template <typename T>
  struct Port {
    explicit Port(std::size_t depth, u32 latency) : queue(depth), pipe(latency) {}
    sim::BoundedQueue<Flit<T>> queue;
    sim::DelayPipe<Flit<T>> pipe;
  };

  /// One bit per port, indexed like the ports (port_index).
  using PortMask = std::vector<u64>;

  /// The ports of one direction (requests or responses) and the masks of
  /// the live ones, so a cycle costs what is in flight, not the port count.
  template <typename T>
  struct Direction {
    std::vector<Port<T>> ports;
    PortMask queued;         ///< ports with a non-empty egress queue
    PortMask piped;          ///< ports with a non-empty pipe
    PortMask ingress_taken;  ///< ingress ports that took a flit this cycle
    u64 flits = 0;        ///< flits injected into a pipe
    u64 hol_blocked = 0;  ///< pipe fronts held back by a taken ingress port

    bool idle() const;
    void clear();
  };

  u32 port_index(u32 tile, u32 net) const { return tile * kNumNetworks + net; }

  /// Queue a flit at its source port; false when that egress queue is full.
  template <typename T>
  bool push(Direction<T>& dir, u32 src_tile, u32 dst_tile, T&& payload);

  template <typename T, typename SinkT>
  void step_ports(Direction<T>& dir, sim::Cycle now, const SinkT& sink);

  u32 tiles_per_group_;
  u32 num_tiles_;
  u32 local_pipe_;
  u32 global_pipe_;

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
