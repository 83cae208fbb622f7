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
//
// A flit carries no payload, only the 32-bit handle of the transaction it
// belongs to (the Cluster keeps one record per core LSU slot) and its
// destination tile, so a flit is 16 bytes and the network never copies a
// request or a response.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "arch/params.hpp"
#include "common/assert.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::arch {

class Interconnect {
 public:
  static constexpr u32 kNumNetworks = 4;  ///< local + 3 inter-group

  explicit Interconnect(const ClusterConfig& cfg);

  /// Network used from tile `src` to tile `dst` (must differ in tile or
  /// group): 0 = intra-group butterfly, 1..3 = inter-group (group XOR).
  /// Symmetric, so a response travels on its request's network.
  u32 network(u32 src_tile, u32 dst_tile) const {
    MP3D_ASSERT(src_tile < num_tiles_ && dst_tile < num_tiles_);
    MP3D_ASSERT_MSG(src_tile != dst_tile, "local accesses do not use the interconnect");
    // 2x2 group arrangement: XOR distance 1 = east/west neighbor, 2 =
    // north/south, 3 = diagonal. With fewer than 4 groups the XOR still
    // yields a unique network per pair; within a group it is 0.
    return (src_tile >> group_shift_) ^ (dst_tile >> group_shift_);
  }

  /// Zero-load one-way latency of `net` in cycles (pipe stages).
  u32 pipe_latency(u32 net) const { return net == 0 ? local_pipe_ : global_pipe_; }

  /// Room in the port's egress queue for a flit pushed at cycle `now`.
  bool can_push_request(u32 src_tile, u32 net, sim::Cycle now) const {
    return can_push(req_, src_tile, net, now);
  }
  bool can_push_response(u32 src_tile, u32 net, sim::Cycle now) const {
    return can_push(resp_, src_tile, net, now);
  }

  /// Queue the flit of transaction `handle` from `src_tile` to `dst_tile`
  /// on network `net` (decoded once, at issue; must equal
  /// network(src_tile, dst_tile)) at cycle `now`. It injects at the first
  /// cycle its direction has not stepped yet and its port has not
  /// injected in. Pre: can_push_request(src_tile, net, now).
  void push_request(u32 src_tile, u32 dst_tile, u32 net, u32 handle, sim::Cycle now) {
    push(req_, src_tile, dst_tile, net, handle, now);
  }
  /// Pre: can_push_response(src_tile, net, now).
  void push_response(u32 src_tile, u32 dst_tile, u32 net, u32 handle, sim::Cycle now) {
    push(resp_, src_tile, dst_tile, net, handle, now);
  }

  /// Step cycle `now` of one direction: deliver the flits that have
  /// arrived (ingress-port limited), calling `sink(dst_tile, handle)` for
  /// each in delivery order. The sink must not push into the direction
  /// being stepped. A direction must be stepped every cycle while it holds
  /// a flit not yet injected (next_event_cycle pins `now + 1` then).
  template <typename Sink>
  void step_requests(sim::Cycle now, Sink&& sink) {
    step(req_, now, sink);
  }
  template <typename Sink>
  void step_responses(sim::Cycle now, Sink&& sink) {
    step(resp_, now, sink);
  }

  bool idle() const { return req_.idle() && resp_.idle(); }

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

  /// Flit slots per request port ring: a power of two shared by every
  /// port of the direction, doubled when head-of-line blocking fills a
  /// ring (responses grow the same way).
  u32 request_ring_slots() const { return req_.mask + 1; }

  void add_counters(sim::CounterSet& counters) const;

  /// Drop in-flight flits and zero the statistics. Called between program
  /// loads on one cluster.
  void reset_run_state();

 private:
  /// One flit in flight: its arrival cycle (inject cycle + pipe latency),
  /// the transaction it carries and the tile it goes to.
  struct Flit {
    sim::Cycle ready_at;
    u32 handle;
    u32 dst;
  };
  static_assert(sizeof(Flit) == 16);

  /// One bit per port, indexed like the ports (port_index).
  using PortMask = std::vector<u64>;
  static constexpr std::size_t kWordBits = 64;
  static u64 port_bit(std::size_t port) { return u64{1} << (port % kWordBits); }

  /// The ports of one direction (requests or responses). Every port's FIFO
  /// ring of flits lives in one flat slab: port p owns the `mask + 1` slots
  /// from `p * (mask + 1)`, and its free-running head and tail counters
  /// index them modulo the ring size. A port's flits are its egress queue
  /// (not yet injected) followed by its pipeline and its arrived flits, in
  /// push order, so arrival cycles ascend along a ring. The live mask
  /// marks the ports holding a flit, so a cycle costs what is in flight,
  /// not the port count.
  struct Direction {
    std::vector<Flit> slab;
    std::vector<u32> head;
    std::vector<u32> tail;
    std::vector<sim::Cycle> last_inject;  ///< inject cycle of each port's newest flit
    u32 shift = 0;           ///< log2 of the slots per ring
    u32 mask = 0;            ///< slots per ring - 1
    PortMask live;           ///< ports holding a flit
    PortMask ingress_taken;  ///< ingress ports that took a flit this cycle
    sim::Cycle stepped = 0;      ///< last cycle this direction stepped
    sim::Cycle newest_inject = 0;  ///< latest inject cycle of any flit
    u64 pushed = 0;       ///< flits pushed (noc.*_flits adds injected ones)
    u64 hol_blocked = 0;  ///< arrived flits held back by a taken ingress port

    /// First cycle a flit pushed at `now` can inject in: `now`, unless
    /// this direction has already stepped it.
    sim::Cycle first_open(sim::Cycle now) const { return std::max(now, stepped + 1); }
    std::size_t size(std::size_t port) const { return tail[port] - head[port]; }
    /// The `i`-th flit of `port`'s ring counted from its head.
    const Flit& at(std::size_t port, u32 i) const {
      return slab[(port << shift) + ((head[port] + i) & mask)];
    }
    bool idle() const {
      return std::all_of(live.begin(), live.end(), [](u64 word) { return word == 0; });
    }
    /// Double every ring, keeping each port's flits in order.
    void grow();
    void clear();
  };

  /// Calls `visit(port)` for every set bit of `mask`, in port order
  /// starting at port `start` and wrapping around. Each mask word is read
  /// when the walk reaches it, so `visit` may clear the bit of the port it
  /// visits.
  template <typename F>
  static void for_each_port(const PortMask& mask, std::size_t start, F&& visit);

  u32 port_index(u32 tile, u32 net) const { return tile * kNumNetworks + net; }

  /// Flits of `port` not yet injected at `first_open`: their inject cycles
  /// run consecutively from `first_open` to the port's last one.
  static std::size_t queued(const Direction& dir, std::size_t port, sim::Cycle first_open) {
    const sim::Cycle last = dir.last_inject[port];
    return last >= first_open ? last - first_open + 1 : 0;
  }

  bool can_push(const Direction& dir, u32 src_tile, u32 net, sim::Cycle now) const {
    return queued(dir, port_index(src_tile, net), dir.first_open(now)) < queue_depth_;
  }
  void push(Direction& dir, u32 src_tile, u32 dst_tile, u32 net, u32 handle, sim::Cycle now);
  template <typename Sink>
  void step(Direction& dir, sim::Cycle now, Sink& sink);

  /// Flits pushed and injected: pushed minus those with an inject cycle
  /// after the direction's last step.
  u64 injected(const Direction& dir) const;

  u32 group_shift_;  ///< log2(tiles_per_group): tile -> group
  u32 num_tiles_;
  u32 num_ports_;    ///< ports per direction: tiles x networks
  u32 local_pipe_;
  u32 global_pipe_;
  std::size_t queue_depth_;  ///< egress queue entries per port

  Direction req_;
  Direction resp_;

  // Hops per network level (request + response flits combined): local =
  // intra-group butterfly traversals, global = inter-group network
  // traversals. The energy model charges each level a different wire
  // length, so they are counted separately.
  u64 local_hops_ = 0;
  u64 global_hops_ = 0;
};

inline void Interconnect::push(Direction& dir, u32 src_tile, u32 dst_tile, u32 net,
                               u32 handle, sim::Cycle now) {
  MP3D_ASSERT_MSG(net == network(src_tile, dst_tile), "flit routed on the wrong network");
  (net == 0 ? local_hops_ : global_hops_) += 1;
  const u32 p = port_index(src_tile, net);
  const sim::Cycle first = dir.first_open(now);
  MP3D_ASSERT_MSG(queued(dir, p, first) < queue_depth_, "push to a full egress queue");
  const sim::Cycle inject = std::max(first, dir.last_inject[p] + 1);
  const sim::Cycle ready_at = inject + pipe_latency(net);
  if (dir.size(p) == dir.mask + 1) {
    dir.grow();  // head-of-line blocking filled the ring
  }
  // Arrival cycles ascend along a port because inject cycles do.
  MP3D_ASSERT(dir.size(p) == 0 ||
              dir.at(p, static_cast<u32>(dir.size(p) - 1)).ready_at <= ready_at);
  dir.slab[(std::size_t{p} << dir.shift) + (dir.tail[p]++ & dir.mask)] =
      Flit{ready_at, handle, dst_tile};
  dir.last_inject[p] = inject;
  dir.newest_inject = std::max(dir.newest_inject, inject);
  ++dir.pushed;
  dir.live[p / kWordBits] |= port_bit(p);
}

template <typename F>
void Interconnect::for_each_port(const PortMask& mask, std::size_t start, F&& visit) {
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

template <typename Sink>
void Interconnect::step(Direction& dir, sim::Cycle now, Sink& sink) {
  dir.stepped = now;
  if (dir.idle()) {
    return;
  }
  // Deliver arrived flits, one per destination ingress port per cycle. The
  // starting port rotates with the cycle count for long-run fairness.
  std::fill(dir.ingress_taken.begin(), dir.ingress_taken.end(), 0);
  for_each_port(dir.live, now % num_ports_, [&](std::size_t p) {
    const Flit* ring = &dir.slab[p << dir.shift];
    const u32 net = static_cast<u32>(p % kNumNetworks);
    const u32 tail = dir.tail[p];
    u32 head = dir.head[p];
    for (; head != tail; ++head) {
      const Flit flit = ring[head & dir.mask];
      if (flit.ready_at > now) {
        break;
      }
      const u32 ingress = port_index(flit.dst, net);
      u64& taken = dir.ingress_taken[ingress / kWordBits];
      if ((taken & port_bit(ingress)) != 0) {
        ++dir.hol_blocked;
        break;  // head-of-line blocking on the destination port
      }
      taken |= port_bit(ingress);
      sink(flit.dst, flit.handle);
    }
    dir.head[p] = head;
    if (head == tail) {
      dir.live[p / kWordBits] &= ~port_bit(p);
    }
  });
}

}  // namespace mp3d::arch
