// SPDX-License-Identifier: Apache-2.0
// Per-group DMA engines: the bulk-transfer path between the bandwidth-
// limited global memory and the shared-L1 SPM (MemPool's follow-up
// architecture paper adds exactly this per group).
//
// A descriptor names a 1D or 2D (strided) transfer where exactly one side
// is global memory and the other side is SPM. The gmem side walks `rows`
// rows of `bytes_per_row` bytes separated by `gmem_stride`; the SPM side
// is filled (or drained) contiguously — the natural layout for staging a
// matrix tile in the interleaved region.
//
// Timing model: every cycle each engine claims bytes for its active
// descriptor from the GlobalMemory byte budget *left over after scalar and
// icache-refill traffic* (scalar requests are latency-critical and win the
// arbitration), capped by the engine's own SPM-side port width; the
// engines take their turns in an order that rotates by one every cycle.
// Whole words move functionally once enough channel bytes are claimed; the
// descriptor completes `gmem latency` cycles after its last byte is
// granted — mirroring the scalar path's latency model, so a transfer of N
// bytes on an otherwise idle channel of B bytes/cycle with port width P
// finishes in ceil(N / min(B, P)) + latency cycles.
//
// Streaming runs: while the engines have the channel to themselves (a
// fast-forward jump with every core asleep), each cycle grants what the
// one a rotation earlier did, until an engine activates a descriptor or is
// granted a descriptor's last byte, or a completion is due.
// DmaSubsystem::stream advances such a run in one call: each engine's
// grants come from the rotation's period sums, and its words move as
// row-wise block copies.
//
// Ordering: the engines access gmem/SPM storage functionally, so they are
// NOT ordered against scalar accesses still queued in the memory system.
// As on real hardware, software must fence before launching a descriptor
// that reads data written by scalar stores (a posted gmem store only
// commits when its response returns, which is exactly what `fence` waits
// for); the runtime's barrier fences, covering the cross-core case.
#pragma once

#include <algorithm>
#include <deque>
#include <span>
#include <vector>

#include "arch/params.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::arch {

class GlobalMemory;

/// Sentinel for DmaDescriptor::waker: nobody is woken on completion.
inline constexpr u32 kDmaNoWaker = 0xFFFF'FFFFu;

/// Cluster-side port of the DMA engines: functional SPM access by blocks
/// of consecutive words (the engines own a dedicated wide SPM port, so
/// data moves directly into the interleaved banks without traversing the
/// core-side interconnect) plus the completion-wake hook into the
/// cluster's wake-up unit.
class DmaSpmPort {
 public:
  virtual ~DmaSpmPort() = default;
  /// Copy the SPM words from `addr` on into `words`.
  virtual void dma_read_spm(u32 addr, std::span<u32> words) = 0;
  /// Copy `words` into the SPM words from `addr` on, dropping the LR
  /// reservations on them.
  virtual void dma_write_spm(u32 addr, std::span<const u32> words) = 0;
  /// A descriptor carrying waker id `core` finished (its completion-latency
  /// window passed, i.e. the cycle its group's pending count drops).
  virtual void dma_wake_core(u32 core) = 0;
};

/// A validated bulk-transfer request (built from the ctrl registers).
struct DmaDescriptor {
  u32 src = 0;            ///< byte address of the first source word
  u32 dst = 0;            ///< byte address of the first destination word
  u32 bytes_per_row = 0;  ///< multiple of 4
  u32 rows = 1;           ///< 1 = plain 1D transfer
  u32 gmem_stride = 0;    ///< byte step between row starts on the gmem side
  bool to_spm = true;     ///< gmem -> SPM (load) or SPM -> gmem (store)
  u16 core = 0;           ///< issuing core (accounting)
  u32 waker = kDmaNoWaker;  ///< core to wake on completion (kDmaNoWaker = none)
  u64 ticket = 0;         ///< per-group sequential id (assigned at dispatch)

  u64 total_bytes() const { return static_cast<u64>(bytes_per_row) * rows; }
};

/// Per-group retirement bookkeeping for descriptor-granular waits.
/// Descriptors receive sequential tickets (1, 2, ...) at dispatch; the
/// watermark is the highest ticket T such that every descriptor with
/// ticket <= T has retired (left the pending count). With several engines
/// per group descriptors can retire out of issue order, so out-of-order
/// retirements are parked until the gap closes — software that waits for
/// `watermark >= T` therefore knows descriptor T *and everything issued
/// before it* is done, regardless of engine count.
class DmaRetireTracker {
 public:
  u64 next_ticket() { return ++issued_; }
  u64 issued() const { return issued_; }
  u64 watermark() const { return watermark_; }

  void note_retired(u64 ticket);
  void reset();

 private:
  u64 issued_ = 0;
  u64 watermark_ = 0;
  std::vector<u64> parked_;  ///< retired out of order, waiting for the gap
};

/// One DMA engine: a bounded descriptor queue served in FIFO order.
class DmaEngine {
 public:
  /// `channel_bytes_per_cycle` is the gmem channel's width: with the port
  /// width it bounds how fast this engine can be granted bytes.
  DmaEngine(const DmaConfig& cfg, u32 channel_bytes_per_cycle, u32 gmem_latency);

  bool can_accept() const { return pending() < max_outstanding_; }
  /// Queue a descriptor; `now` only timestamps the trace's "staged"
  /// instant and has no timing effect.
  void push(DmaDescriptor descriptor, sim::Cycle now = 0);

  /// Attach the event trace (nullptr detaches); `track` is this engine's
  /// timeline row. Emits the descriptor lifecycle: "dma_staged" instant at
  /// push, a "dma_xfer" span over the active-transfer phase (activation to
  /// last granted byte; the completion-latency window overlaps the next
  /// descriptor's transfer, so it is not part of the span), and a
  /// "dma_retired" instant when the watermark advances. Event args carry
  /// the ticket.
  void set_trace(obs::Trace* trace, u32 track);

  /// Descriptors not yet fully completed (queued + active + in the
  /// completion-latency window). This is what software polls as kDmaStatus.
  u32 pending() const;

  /// The grant rule, for this engine's turn in a cycle's service order:
  /// with `channel` bytes of the cycle's budget left, it claims up to its
  /// port width of its backlog. Returns the claim and takes it off
  /// `channel`.
  u32 claim(u64& channel) const {
    const u32 got = static_cast<u32>(
        std::min<u64>({port_bytes_per_cycle_, backlog_bytes_, channel}));
    channel -= got;
    return got;
  }

  /// Advance one cycle in which this engine claimed `grant` bytes: retire
  /// the due completions (reported to `tracker`, its group's, before any
  /// completion wake), then place the bytes on the active and queued
  /// descriptors in order, activating and completing them.
  void step(sim::Cycle now, u32 grant, GlobalMemory& gmem, DmaSpmPort& spm,
            DmaRetireTracker& tracker);

  /// Grant `bytes` more to the active descriptor over a streaming run:
  /// the run leaves at least one of its bytes ungranted, so nothing
  /// activates, completes or retires.
  void stream(u64 bytes, GlobalMemory& gmem, DmaSpmPort& spm);

  /// step(now, grant) would change nothing: no completion is due, and
  /// `grant` is zero for an engine that is mid-transfer or has no
  /// backlog. An inactive engine with a queued descriptor is never inert:
  /// its step activates the descriptor (and opens its trace span) even
  /// when no byte is granted.
  bool inert(sim::Cycle now, u32 grant) const {
    return next_retire() > now && grant == 0 && (active_ || queue_.empty());
  }

  bool active() const { return active_; }
  /// A descriptor is queued and none is active: the next step activates it.
  bool activation_due() const { return !active_ && !queue_.empty(); }
  /// The active descriptor's bytes not yet granted (0 when inactive).
  u64 ungranted() const { return active_ ? current_.total_bytes() - granted_bytes_ : 0; }
  /// The cycle the oldest completion retires (kNever when none waits).
  sim::Cycle next_retire() const {
    return completing_.empty() ? sim::kNever : completing_.front().done_at;
  }
  /// True when the active transfers of this engine and `other` touch a
  /// common word that one of them writes, so their word moves must keep
  /// the per-cycle order. Each transfer counts from its next word to move
  /// to its end; the gmem side from its current row's start.
  bool overlaps(const DmaEngine& other) const;

  bool idle() const { return pending() == 0; }
  u64 bytes_moved() const { return bytes_moved_; }
  u64 descriptors_completed() const { return descriptors_completed_; }

  /// A lower bound on the cycle this engine next retires a descriptor
  /// (and so can fire a completion wake), for the cluster's wake oracle;
  /// kNever when fully idle. It is the earlier of the oldest completion's
  /// `done_at` and, while bytes remain ungranted, the soonest the front
  /// descriptor could retire: its ungranted bytes need at least
  /// ceil(bytes / min(channel, port width)) more cycles of grants,
  /// starting at `now + 1`, and the completion window then adds
  /// max(gmem latency, 1) (a completion pushed in cycle c is checked from
  /// c + 1 on). No later descriptor can retire before the front one.
  sim::Cycle next_ready_cycle(sim::Cycle now) const {
    sim::Cycle next = completing_.empty() ? sim::kNever : completing_.front().done_at;
    if (backlog_bytes_ > 0) {
      const u64 front = active_ ? current_.total_bytes() - granted_bytes_
                                : queue_.front().total_bytes();
      next = std::min<sim::Cycle>(
          next, now + (front + max_grant_per_cycle_ - 1) / max_grant_per_cycle_ +
                    std::max<u32>(gmem_latency_, 1));
    }
    return next;
  }

 private:
  u32 max_outstanding_;
  u32 port_bytes_per_cycle_;
  u32 max_grant_per_cycle_;  ///< min(channel width, port width)
  u32 gmem_latency_;

  struct Completion {
    sim::Cycle done_at = 0;  ///< cycle the completion latency window passes
    u32 waker = kDmaNoWaker;
    u64 ticket = 0;
  };

  std::deque<DmaDescriptor> queue_;
  bool active_ = false;
  DmaDescriptor current_;
  u64 granted_bytes_ = 0;  ///< channel bytes claimed for `current_`
  u64 moved_bytes_ = 0;    ///< bytes functionally moved for `current_`
  // Word cursor of `current_`: the next word's gmem row start and byte
  // offset within that row, and its SPM address (the SPM side is linear).
  u32 gmem_row_ = 0;
  u32 row_off_ = 0;
  u32 spm_addr_ = 0;
  // Channel bytes this engine still wants: the active descriptor's
  // ungranted remainder plus every queued descriptor (descriptors in the
  // completion-latency window claim nothing). Push adds, grants subtract.
  u64 backlog_bytes_ = 0;
  std::deque<Completion> completing_;  ///< descriptors awaiting latency

  /// Move the granted whole words of `current_` not moved yet, one block
  /// copy per gmem row piece.
  void move_words(GlobalMemory& gmem, DmaSpmPort& spm);

  u64 bytes_moved_ = 0;
  u64 descriptors_completed_ = 0;

  obs::Trace* trace_ = nullptr;  ///< optional event trace (null = off)
  u32 track_ = 0;
  u32 ev_staged_ = 0;
  u32 ev_xfer_ = 0;
  u32 ev_retired_ = 0;
};

/// The cluster's DMA subsystem: `engines_per_group` engines per group,
/// with per-group round-robin descriptor dispatch.
class DmaSubsystem {
 public:
  DmaSubsystem(const ClusterConfig& cfg);

  u32 num_groups() const { return num_groups_; }
  u32 engines_per_group() const { return engines_per_group_; }

  /// True if some engine of `group` can take another descriptor.
  bool can_accept(u32 group) const;
  /// Dispatch to the group's next engine with a free slot (pre: can_accept).
  /// `now` only timestamps the trace's "staged" instant.
  void push(u32 group, DmaDescriptor descriptor, sim::Cycle now = 0);

  /// Attach the event trace; `engine_tracks` has one row per engine in
  /// subsystem order. Survives reset() (which recreates the engines).
  void set_trace(obs::Trace* trace, std::vector<u32> engine_tracks);

  /// Aggregate outstanding-descriptor count of `group` (kDmaStatus).
  u32 pending(u32 group) const;

  /// Ticket of the most recently dispatched descriptor of `group`
  /// (kDmaTicket; 0 = nothing dispatched yet).
  u64 issued(u32 group) const { return trackers_[group].issued(); }
  /// In-order retired watermark of `group` (kDmaRetired): every descriptor
  /// with ticket <= retired(group) has completed.
  u64 retired(u32 group) const { return trackers_[group].watermark(); }

  /// Advance every engine one cycle on the budget the channel has left
  /// after the cycle's scalar traffic, and claim the grants from `gmem`;
  /// returns the bytes granted. Must run after GlobalMemory::step.
  u32 step(sim::Cycle now, GlobalMemory& gmem, DmaSpmPort& spm);

  /// A run of cycles that repeat one grant pattern (see the header
  /// comment), and the bytes granted over it.
  struct Run {
    u64 cycles = 0;
    u64 bytes = 0;
  };
  /// Advance the engines and `gmem` over the run that starts at cycle
  /// `first`, at most `cycles` long, on a channel that carries no scalar
  /// traffic (GlobalMemory::stream). A run is one cycle when `first` is a
  /// boundary (an activation, a completion or a due retire) or when two
  /// active transfers overlap; otherwise it ends before the next boundary.
  /// With no backlog it lasts until the next retire is due.
  Run stream(sim::Cycle first, u64 cycles, GlobalMemory& gmem, DmaSpmPort& spm);

  /// Aggregate channel-byte backlog of every engine — the bulk-demand
  /// signal the gmem bounded-share arbiter reserves against. A running sum
  /// (push adds, step subtracts): Cluster::step reads it every cycle.
  u64 backlog_bytes() const { return backlog_bytes_; }

  /// Minimum next_ready_cycle over every engine (kNever when all idle): a
  /// lower bound on the next retire or completion wake.
  sim::Cycle next_ready_cycle(sim::Cycle now) const;

  /// The engine that leads the next cycle's service order.
  u32 rotation() const { return step_rr_; }

  bool idle() const;
  void reset();
  void add_counters(sim::CounterSet& counters) const;

  /// Bump the "a start write sat blocked on a full queue this cycle"
  /// counter (the Cluster's ctrl frontend detects the condition).
  void note_queue_full_stall() { ++queue_full_stall_cycles_; }

 private:
  u32 num_groups_;
  u32 engines_per_group_;
  DmaConfig cfg_;
  u32 gmem_bytes_per_cycle_;
  u32 gmem_latency_;
  std::vector<DmaEngine> engines_;
  std::vector<u32> engine_group_;  ///< group of each engine (its tracker)
  std::vector<DmaRetireTracker> trackers_;  ///< one per group
  std::vector<u32> dispatch_rr_;  ///< per-group round-robin cursor
  u32 step_rr_ = 0;               ///< rotates per-cycle engine service order
  u64 backlog_bytes_ = 0;         ///< sum of the engines' backlogs
  u64 busy_cycles_ = 0;           ///< cycles any engine moved bytes
  u64 queue_full_stall_cycles_ = 0;
  obs::Trace* trace_ = nullptr;   ///< kept so reset() can re-attach
  std::vector<u32> engine_tracks_;
  /// Row j (0..n) holds each engine's grants summed over the first j
  /// cycles of a run (n = engines, one rotation period); sized once.
  std::vector<u64> run_grants_;

  void apply_trace();
  /// The grant rule, one cycle: the engines in service order from `rr`,
  /// each claiming from what the earlier ones left of `budget`
  /// (DmaEngine::claim); `served(e, grant)` sees every engine's claim in
  /// that order, and may step the engine (a claim depends on no other
  /// engine's state). Returns the cycle's total.
  template <typename Served>
  u64 grant(u32 rr, u64 budget, Served&& served);
  /// One cycle on `budget`: every engine's claim, retires and grants.
  u64 serve(sim::Cycle now, u64 budget, GlobalMemory& gmem, DmaSpmPort& spm);
  /// The length of the streaming run from `first` (at least 1, at most
  /// `cycles`); fills run_grants_ when it is longer than one cycle.
  u64 run_length(sim::Cycle first, u64 cycles, u64 budget);
  /// Rotate, drain the backlog and count busy cycles for `cycles` cycles
  /// that each granted `grant` bytes.
  void account(u64 cycles, u64 grant);
};

}  // namespace mp3d::arch
