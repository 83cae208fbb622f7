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
// interleaved-SPM traffic.
//
// Delivery is per destination group. A port's network is the XOR of its
// tile's group and the destination's, so every flit of one port goes to
// the same group, and each group owns the read side of the ports bound
// for it: one per tile of the cluster. A group's delivery walks only
// those ports and touches no state another group's touches, so the groups
// may deliver on different host threads. Contended ingress ports go to
// the source port visited first, in port order starting at `now % ports`
// and wrapping — within one group, the order a walk over every port takes.
//
// A cycle is begin_cycle, then each group's begin_group, deliveries and
// pushes, then end_cycle. The request direction steps the cycle at
// begin_cycle (a request pushed during it injects next cycle at the
// earliest) and the response direction at end_cycle (a response pushed
// during it can inject in it). A flit's reader (the destination group)
// owns the port rings; the writer (the source tile's group) owns the
// port's inject stamps. A flit within a group goes straight into its
// ring. A flit to another group goes into the writer's mailbox for that
// group, which the reader copies into its rings at its next begin_group.
// A flit never arrives in the cycle it is pushed (every pipe takes a
// cycle), so neither delays a delivery. Mailboxes alternate between two
// sets by cycle, so a writer never touches the set its readers are
// copying from, and each cycle's flits for one group cross between host
// threads as one dense run. A mailbox is a fixed, line-aligned array whose
// slot 0 holds its flit count, sized for the most one group's tiles can
// push to another in a cycle (each port takes at most its queue depth),
// so a reader finds the count on the line of the first flits. The fields
// the calling thread writes every cycle (the begin_cycle count and each
// direction's last stepped cycle) sit on a line of their own, the clock,
// which a group reads, with its incoming mailbox heads, through
// prefetch_group before it uses any of them.
//
// A flit carries the SPM access itself (arch/mem_types.hpp's BankRequest,
// the response word on the way back), the handle of the LSU slot it
// belongs to and its source and destination tiles: 24 bytes, so the
// reader needs nothing the writer's group keeps.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "common/assert.hpp"
#include "sim/counters.hpp"
#include "sim/fork_join.hpp"
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

  /// Queue the flit of `request` (LSU slot `handle`) from `src_tile` to
  /// `dst_tile` on network `net` (decoded once, at issue; must equal
  /// network(src_tile, dst_tile)) at cycle `now`. It injects at the first
  /// cycle its direction has not stepped yet and its port has not
  /// injected in. Pre: can_push_request(src_tile, net, now). Touches only
  /// the source tile's group's state.
  void push_request(u32 src_tile, u32 dst_tile, u32 net, u32 handle,
                    const BankRequest& request, sim::Cycle now) {
    push(req_, src_tile, dst_tile, net, handle, request, now);
  }
  /// Pre: can_push_response(src_tile, net, now).
  void push_response(u32 src_tile, u32 dst_tile, u32 net, u32 handle,
                     const BankRequest& request, sim::Cycle now) {
    push(resp_, src_tile, dst_tile, net, handle, request, now);
  }

  /// Start cycle `now`: the request direction steps it.
  void begin_cycle(sim::Cycle now) {
    ++clock_.cycles;
    clock_.stepped[kRequests] = now;
  }
  /// Issue the loads of the lines other threads wrote for `group` since
  /// its previous part of a cycle (the clock, then the heads of the
  /// mailboxes it copies from at begin_group), so their misses overlap.
  /// Between begin_cycle and the group's begin_group.
  void prefetch_group(u32 group) const {
    const u32 set = mailbox_set() ^ 1;
    for (const Direction* dir : {&req_, &resp_}) {
      for (u32 writer = 0; writer < num_groups_; ++writer) {
        if (writer != group) {
          __builtin_prefetch(mailbox(*dir, writer, group, set));
        }
      }
    }
  }
  /// Start `group`'s part of the cycle, before its deliveries and pushes:
  /// copy the flits pushed to it since the previous begin_cycle into its
  /// rings.
  void begin_group(u32 group) {
    begin_group(req_, group);
    begin_group(resp_, group);
  }
  /// Deliver the flits bound for `group` that have arrived by `now`
  /// (ingress-port limited), calling `sink(dst_tile, handle, request)` for
  /// each in delivery order.
  template <typename Sink>
  void deliver_requests(u32 group, sim::Cycle now, Sink&& sink) {
    deliver(req_, group, now, sink);
  }
  template <typename Sink>
  void deliver_responses(u32 group, sim::Cycle now, Sink&& sink) {
    deliver(resp_, group, now, sink);
  }
  /// End cycle `now`: the response direction steps it. A direction must
  /// be stepped every cycle while it holds a flit not yet injected
  /// (next_event_cycle pins `now + 1` then).
  void end_cycle(sim::Cycle now) { clock_.stepped[kResponses] = now; }

  u32 num_groups() const { return num_groups_; }
  /// No flit in flight. Between cycles only.
  bool idle() const { return idle(req_) && idle(resp_); }

  /// Next cycle any flit moves, for the cluster's idle-cycle fast-forward.
  /// A flit not yet injected injects next cycle (`now + 1`); otherwise the
  /// answer is the earliest arrival cycle at a port's front — which may lie
  /// in the past when delivery was head-of-line blocked, naturally
  /// forbidding a jump — or kNever when every port is drained. The
  /// per-cycle delivery rotation is derived from the cycle number itself,
  /// so it needs no catch-up on a jump. Reads the live-port masks, so a
  /// drained network answers without touching a port (this is called on
  /// every failed fast-forward attempt). Between cycles only.
  sim::Cycle next_event_cycle(sim::Cycle now) const;

  /// The most flit slots of any request port ring: each ring starts with
  /// room for a full egress queue plus a full pipeline, and doubles when
  /// head-of-line blocking fills it (responses grow the same way).
  u32 request_ring_slots() const;

  /// Between cycles only.
  void add_counters(sim::CounterSet& counters) const;

  /// Drop in-flight flits and zero the statistics. Called between program
  /// loads on one cluster.
  void reset_run_state();

 private:
  /// One flit in flight: its arrival cycle (inject cycle + pipe latency),
  /// its LSU slot, the tiles it goes from and to, and the access it
  /// carries.
  struct Flit {
    u64 stamp;  ///< arrival cycle << kHandleBits | handle
    u16 src;
    u16 dst;
    BankRequest request;

    sim::Cycle ready_at() const { return stamp >> kHandleBits; }
    u32 handle() const { return static_cast<u32>(stamp & ((u64{1} << kHandleBits) - 1)); }
  };
  /// Handles fit in 24 bits (a core id times the LSU slots), arrival
  /// cycles in the other 40, so a flit is 24 bytes.
  static constexpr u32 kHandleBits = 24;
  static_assert(sizeof(Flit) == 24);

  /// One bit per element (tile or ingress port).
  using Mask = sim::LineVector<u64>;
  static constexpr std::size_t kWordBits = 64;
  static u64 bit(std::size_t i) { return u64{1} << (i % kWordBits); }
  static bool none(const Mask& mask) {
    return std::all_of(mask.begin(), mask.end(), [](u64 word) { return word == 0; });
  }

  /// The FIFO of one port's flits, kept by the port's destination group:
  /// its egress queue (not yet injected) followed by its pipeline and its
  /// arrived flits, in push order, so arrival cycles ascend along it. Head
  /// and tail run free and index the slots modulo their count, a power of
  /// two that doubles when head-of-line blocking fills the ring.
  struct Ring {
    std::vector<Flit> slots;
    u32 head = 0;
    u32 tail = 0;
    u32 mask = 0;  ///< slots - 1

    u32 size() const { return tail - head; }
    /// The `i`-th flit counted from the head.
    const Flit& at(u32 i) const { return slots[(head + i) & mask]; }
    void push(const Flit& flit) {
      if (size() == mask + 1) {
        grow();  // head-of-line blocking filled the ring
      }
      slots[tail++ & mask] = flit;
    }
    /// Double the slots, flits in order.
    void grow();
  };

  /// One group's share of a direction. As the reader it owns the rings of
  /// the ports bound for it, one per source tile and indexed by that tile;
  /// as the writer it owns the push counts of its tiles' ports. During a
  /// cycle only that group touches its lane.
  struct alignas(64) Lane {
    sim::LineVector<Ring> rings;  ///< per source tile
    Mask live;                    ///< source tiles whose ring holds a flit
    Mask ingress_taken;           ///< own ingress ports (local tile x net) taken this cycle
    u64 hol_blocked = 0;          ///< arrived flits held back by a taken ingress port
    sim::Cycle newest_inject = 0;  ///< latest inject cycle of a flit pushed here
    u64 pushed = 0;       ///< flits pushed (noc.*_flits adds injected ones)
    u64 local_hops = 0;   ///< pushes on the intra-group network
    u64 global_hops = 0;  ///< pushes on the inter-group networks
  };

  static constexpr u32 kRequests = 0;
  static constexpr u32 kResponses = 1;

  /// The ports of one direction (requests or responses).
  struct Direction {
    u32 index = kRequests;  ///< kRequests or kResponses
    /// Inject cycle of each port's newest flit, written by the port's
    /// tile's group.
    sim::LineVector<sim::Cycle> last_inject;
    /// Mailbox (writer w, reader r, set s) at slot ((w * groups + r) * 2 +
    /// s) * mailbox_stride_: the flits w's tiles pushed for r in one
    /// cycle, their count in the stamp of the mailbox's slot 0 and the
    /// flits in slots 1, 2, ... in push order.
    sim::LineVector<Flit> mail;
    std::vector<Lane> lanes;  ///< one per group

    void clear();
  };

  /// What the calling thread writes every cycle and every group reads, on
  /// a line of its own so that writing it leaves the lines the groups read
  /// alone.
  struct alignas(64) Clock {
    u32 cycles = 0;  ///< begin_cycle calls: picks the mailbox set
    sim::Cycle stepped[2] = {0, 0};  ///< last cycle each direction stepped
  };

  /// First cycle a flit of `dir` pushed at `now` can inject in: `now`,
  /// unless the direction has already stepped it.
  sim::Cycle first_open(const Direction& dir, sim::Cycle now) const {
    return std::max(now, clock_.stepped[dir.index] + 1);
  }

  /// Calls `visit(i)` for every set bit `i` of `mask`, in index order
  /// starting at `start` and wrapping around. Each mask word is read when
  /// the walk reaches it, so `visit` may clear the bit it visits.
  template <typename F>
  static void for_each_bit(const Mask& mask, std::size_t start, F&& visit);

  u32 port_index(u32 tile, u32 net) const { return tile * kNumNetworks + net; }
  u32 group_of(u32 tile) const { return tile >> group_shift_; }
  /// Network of `tile`'s port bound for `group`.
  u32 net_to(u32 tile, u32 group) const { return group_of(tile) ^ group; }
  /// The mailbox set pushes go to this cycle (the other one is being
  /// copied from).
  u32 mailbox_set() const { return clock_.cycles & 1; }
  Flit* mailbox(Direction& dir, u32 writer, u32 reader, u32 set) const {
    return dir.mail.data() + ((writer * num_groups_ + reader) * 2 + set) * mailbox_stride_;
  }
  const Flit* mailbox(const Direction& dir, u32 writer, u32 reader, u32 set) const {
    return dir.mail.data() + ((writer * num_groups_ + reader) * 2 + set) * mailbox_stride_;
  }
  /// Flits of `port` not yet injected at `first_open`: their inject cycles
  /// run consecutively from `first_open` to the port's last one.
  static std::size_t queued(const Direction& dir, std::size_t port, sim::Cycle first_open) {
    const sim::Cycle last = dir.last_inject[port];
    return last >= first_open ? last - first_open + 1 : 0;
  }

  bool can_push(const Direction& dir, u32 src_tile, u32 net, sim::Cycle now) const {
    return queued(dir, port_index(src_tile, net), first_open(dir, now)) < queue_depth_;
  }
  void push(Direction& dir, u32 src_tile, u32 dst_tile, u32 net, u32 handle,
            const BankRequest& request, sim::Cycle now);
  /// Copy the flits pushed to `group` in the other mailbox set into its
  /// rings, and empty the group's own mailboxes of this cycle's set.
  void begin_group(Direction& dir, u32 group);
  template <typename Sink>
  void deliver(Direction& dir, u32 group, sim::Cycle now, Sink& sink);
  bool idle(const Direction& dir) const;
  /// Calls `visit(flit)` for every flit pushed since the last begin_cycle
  /// (still in a mailbox). Between cycles only.
  template <typename F>
  void for_each_pending(const Direction& dir, F&& visit) const;

  /// Flits pushed and injected: pushed minus those with an inject cycle
  /// after the direction's last step.
  u64 injected(const Direction& dir) const;

  u32 group_shift_;  ///< log2(tiles_per_group): tile -> group
  u32 num_groups_;
  u32 num_tiles_;
  u32 num_ports_;    ///< ports per direction: tiles x networks
  u32 local_pipe_;
  u32 global_pipe_;
  std::size_t queue_depth_;  ///< egress queue entries per port
  /// Flits a mailbox holds: tiles_per_group x queue_depth_, the most one
  /// group can push to another in a cycle.
  u64 mailbox_flits_;
  /// Slots per mailbox: the count slot and mailbox_flits_, rounded up to
  /// whole lines (8 flits are 3 lines), so every mailbox starts a line.
  std::size_t mailbox_stride_;

  Direction req_;
  Direction resp_;
  Clock clock_;
};

inline void Interconnect::push(Direction& dir, u32 src_tile, u32 dst_tile, u32 net,
                               u32 handle, const BankRequest& request, sim::Cycle now) {
  MP3D_ASSERT_MSG(net == network(src_tile, dst_tile), "flit routed on the wrong network");
  const u32 writer = group_of(src_tile);
  Lane& lane = dir.lanes[writer];
  (net == 0 ? lane.local_hops : lane.global_hops) += 1;
  const u32 p = port_index(src_tile, net);
  const sim::Cycle first = first_open(dir, now);
  MP3D_ASSERT_MSG(queued(dir, p, first) < queue_depth_, "push to a full egress queue");
  const sim::Cycle inject = std::max(first, dir.last_inject[p] + 1);
  // Arrival cycles ascend along a port because inject cycles do.
  const sim::Cycle ready_at = inject + pipe_latency(net);
  MP3D_ASSERT(handle >> kHandleBits == 0 && ready_at >> (64 - kHandleBits) == 0);
  const Flit flit{ready_at << kHandleBits | handle, static_cast<u16>(src_tile),
                  static_cast<u16>(dst_tile), request};
  if (net == 0) {
    // The reader is this group: no other thread reads the ring, and the
    // flit arrives after this cycle's delivery walk has passed it.
    lane.rings[src_tile].push(flit);
    lane.live[src_tile / kWordBits] |= bit(src_tile);
  } else {
    Flit* box = mailbox(dir, writer, group_of(dst_tile), mailbox_set());
    u64& count = box[0].stamp;
    MP3D_ASSERT_MSG(count < mailbox_flits_, "mailbox overflow");
    box[++count] = flit;
  }
  dir.last_inject[p] = inject;
  lane.newest_inject = std::max(lane.newest_inject, inject);
  ++lane.pushed;
}

inline void Interconnect::begin_group(Direction& dir, u32 group) {
  const u32 set = mailbox_set();
  Lane& lane = dir.lanes[group];
  for (u32 writer = 0; writer < num_groups_; ++writer) {
    if (writer == group) {
      continue;  // a group's own flits went straight into its rings
    }
    const Flit* in = mailbox(dir, writer, group, set ^ 1);
    for (u64 i = 1; i <= in[0].stamp; ++i) {
      const Flit& flit = in[i];
      lane.rings[flit.src].push(flit);
      lane.live[flit.src / kWordBits] |= bit(flit.src);
    }
    // Empty this cycle's outgoing mailbox; one already empty stays
    // untouched, its line shared with its reader.
    if (u64& out = mailbox(dir, group, writer, set)[0].stamp; out != 0) {
      out = 0;
    }
  }
}

template <typename F>
void Interconnect::for_each_bit(const Mask& mask, std::size_t start, F&& visit) {
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
void Interconnect::deliver(Direction& dir, u32 group, sim::Cycle now, Sink& sink) {
  Lane& lane = dir.lanes[group];
  if (none(lane.live)) {
    return;
  }
  // Deliver arrived flits, one per destination ingress port per cycle. The
  // starting port rotates with the cycle count for long-run fairness: the
  // walk starts at the first tile whose port bound here is not below it.
  std::fill(lane.ingress_taken.begin(), lane.ingress_taken.end(), 0);
  const u32 start = static_cast<u32>(now % num_ports_);
  u32 first = start / kNumNetworks;
  if (net_to(first, group) < start % kNumNetworks && ++first == num_tiles_) {
    first = 0;
  }
  const u32 first_tile = group << group_shift_;
  for_each_bit(lane.live, first, [&](std::size_t t) {
    const u32 tile = static_cast<u32>(t);
    const u32 net = net_to(tile, group);
    Ring& ring = lane.rings[tile];
    const u32 tail = ring.tail;
    u32 head = ring.head;
    for (; head != tail; ++head) {
      const Flit& flit = ring.slots[head & ring.mask];
      if (flit.ready_at() > now) {
        break;
      }
      const u32 ingress = (flit.dst - first_tile) * kNumNetworks + net;
      u64& taken = lane.ingress_taken[ingress / kWordBits];
      if ((taken & bit(ingress)) != 0) {
        ++lane.hol_blocked;
        break;  // head-of-line blocking on the destination port
      }
      taken |= bit(ingress);
      sink(flit.dst, flit.handle(), flit.request);
    }
    ring.head = head;
    if (head == tail) {
      lane.live[tile / kWordBits] &= ~bit(tile);
    }
  });
}

}  // namespace mp3d::arch
