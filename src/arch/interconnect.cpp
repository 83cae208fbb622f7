// SPDX-License-Identifier: Apache-2.0
#include "arch/interconnect.hpp"

namespace mp3d::arch {

void Interconnect::Direction::clear() {
  std::fill(last_inject.begin(), last_inject.end(), 0);
  std::fill(mail.begin(), mail.end(), Flit{});
  for (Lane& lane : lanes) {
    for (Ring& ring : lane.rings) {
      ring.head = 0;
      ring.tail = 0;
    }
    std::fill(lane.live.begin(), lane.live.end(), 0);
    lane.hol_blocked = 0;
    lane.newest_inject = 0;
    lane.pushed = 0;
    lane.local_hops = 0;
    lane.global_hops = 0;
  }
}

Interconnect::Interconnect(const ClusterConfig& cfg)
    : group_shift_(log2_exact(cfg.tiles_per_group)),
      num_groups_(cfg.num_groups),
      num_tiles_(cfg.num_tiles()),
      num_ports_(cfg.num_tiles() * kNumNetworks),
      local_pipe_(cfg.local_net_pipe),
      global_pipe_(cfg.global_net_pipe),
      queue_depth_(cfg.port_queue_depth),
      mailbox_flits_(u64{cfg.tiles_per_group} * cfg.port_queue_depth),
      mailbox_stride_((mailbox_flits_ + 1 + 7) / 8 * 8) {
  MP3D_CHECK(is_pow2(cfg.tiles_per_group), "tiles per group must be a power of two");
  static_assert(8 * sizeof(Flit) % sim::CacheLineAllocator<Flit>::kLine == 0);
  const std::size_t tile_words = (num_tiles_ + kWordBits - 1) / kWordBits;
  const u32 group_ports = cfg.tiles_per_group * kNumNetworks;
  // Room for a full egress queue plus a full pipeline; head-of-line
  // blocking can grow the rings past it.
  const u32 slots =
      std::bit_ceil(static_cast<u32>(queue_depth_) + std::max(local_pipe_, global_pipe_) + 1);
  resp_.index = kResponses;
  for (Direction* dir : {&req_, &resp_}) {
    dir->last_inject.assign(num_ports_, 0);
    if (num_groups_ > 1) {
      dir->mail.assign(std::size_t{num_groups_} * num_groups_ * 2 * mailbox_stride_, Flit{});
    }
    dir->lanes.resize(num_groups_);
    for (Lane& lane : dir->lanes) {
      lane.rings.resize(num_tiles_);
      for (Ring& ring : lane.rings) {
        ring.slots.resize(slots);
        ring.mask = slots - 1;
      }
      lane.live.assign(tile_words, 0);
      lane.ingress_taken.assign((group_ports + kWordBits - 1) / kWordBits, 0);
    }
  }
}

void Interconnect::Ring::grow() {
  std::vector<Flit> next(2 * slots.size());
  for (u32 i = 0; i < size(); ++i) {
    next[i] = at(i);
  }
  tail = size();
  head = 0;
  slots = std::move(next);
  mask = 2 * mask + 1;
}

u32 Interconnect::request_ring_slots() const {
  u32 slots = 0;
  for (const Lane& lane : req_.lanes) {
    for (const Ring& ring : lane.rings) {
      slots = std::max(slots, ring.mask + 1);
    }
  }
  return slots;
}

template <typename F>
void Interconnect::for_each_pending(const Direction& dir, F&& visit) const {
  for (u32 writer = 0; writer < num_groups_; ++writer) {
    for (u32 reader = 0; reader < num_groups_; ++reader) {
      if (writer == reader) {
        continue;
      }
      const Flit* box = mailbox(dir, writer, reader, mailbox_set());
      for (u64 i = 1; i <= box[0].stamp; ++i) {
        visit(box[i]);
      }
    }
  }
}

bool Interconnect::idle(const Direction& dir) const {
  bool pending = false;
  for_each_pending(dir, [&](const Flit& /*flit*/) { pending = true; });
  return !pending && std::all_of(dir.lanes.begin(), dir.lanes.end(),
                                 [](const Lane& lane) { return none(lane.live); });
}

sim::Cycle Interconnect::next_event_cycle(sim::Cycle now) const {
  for (const Direction* dir : {&req_, &resp_}) {
    for (const Lane& lane : dir->lanes) {
      if (lane.newest_inject >= first_open(*dir, now)) {
        return now + 1;  // a queued flit injects into its pipeline next step
      }
    }
  }
  // The earliest ring front. A flit still in a mailbox is the newest of its
  // port, so it arrives no earlier than the port's front.
  sim::Cycle next = sim::kNever;
  for (const Direction* dir : {&req_, &resp_}) {
    for (const Lane& lane : dir->lanes) {
      for_each_bit(lane.live, 0,
                   [&](std::size_t t) { next = std::min(next, lane.rings[t].at(0).ready_at()); });
    }
    for_each_pending(*dir, [&](const Flit& flit) { next = std::min(next, flit.ready_at()); });
  }
  return next;
}

void Interconnect::reset_run_state() {
  req_.clear();
  resp_.clear();
  clock_ = Clock{};
}

u64 Interconnect::injected(const Direction& dir) const {
  // A flit is waiting while its inject cycle lies after the direction's
  // last step. Inject cycles ascend along a port, and a port's flits still
  // in a mailbox are its newest, so each count walks from the newest flit
  // and stops at the first injected one.
  u64 pushed = 0;
  u64 waiting = 0;
  const auto waits = [&](const Flit& flit) {
    return flit.ready_at() - pipe_latency(group_of(flit.src) ^ group_of(flit.dst)) >
           clock_.stepped[dir.index];
  };
  for (const Lane& lane : dir.lanes) {
    pushed += lane.pushed;
    for (const Ring& ring : lane.rings) {
      for (u32 i = ring.size(); i > 0 && waits(ring.at(i - 1)); --i) {
        ++waiting;
      }
    }
  }
  for_each_pending(dir, [&](const Flit& flit) { waiting += waits(flit) ? 1 : 0; });
  return pushed - waiting;
}

void Interconnect::add_counters(sim::CounterSet& counters) const {
  u64 hol[2] = {0, 0};
  u64 local_hops = 0;
  u64 global_hops = 0;
  for (int d = 0; d < 2; ++d) {
    for (const Lane& lane : (d == 0 ? req_ : resp_).lanes) {
      hol[d] += lane.hol_blocked;
      local_hops += lane.local_hops;
      global_hops += lane.global_hops;
    }
  }
  counters.set("noc.req_flits", injected(req_));
  counters.set("noc.resp_flits", injected(resp_));
  counters.set("noc.req_hol_blocked", hol[0]);
  counters.set("noc.resp_hol_blocked", hol[1]);
  counters.set("noc.local_hops", local_hops);
  counters.set("noc.global_hops", global_hops);
}

}  // namespace mp3d::arch
