// SPDX-License-Identifier: Apache-2.0
// Bandwidth-limited global ("off-chip") memory model.
//
// The paper idealizes off-chip latency and sweeps only the bandwidth
// (4..64 B/cycle); we do the same: a FIFO request stream is served from a
// per-cycle byte budget, plus a small fixed latency. Storage is a table of
// 64 KiB pages indexed by page number, each allocated on first write, so a
// 64 MiB window costs only what is touched.
//
// The per-cycle byte budget is arbitrated between two traffic classes: the
// latency-critical scalar/refill FIFO and the DMA engines' bulk claims.
// By default scalar traffic has absolute priority (the policy every paper
// figure was produced under); a nonzero GmemArbiterConfig::bulk_min_pct
// turns on the bounded-share arbiter, which guarantees bulk DMA its
// configured minimum share (with a capped deficit carry-over) whenever
// bulk demand exists — see GmemArbiterConfig in arch/params.hpp.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "arch/word_op.hpp"
#include "sim/counters.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::arch {

class GlobalMemory {
 public:
  GlobalMemory(u32 base, u64 size, u32 bytes_per_cycle, u32 latency,
               GmemArbiterConfig arbiter = {});

  // ---- functional backdoor (host access, program loading) ----------------
  u32 read_word(u32 addr) const;
  /// read_word over consecutive words from `addr` into `words`, copied
  /// page by page (a page never written reads as zeros). Pre: the range
  /// lies in the window.
  void read_words(u32 addr, std::span<u32> words) const;
  void write_word(u32 addr, u32 value);
  /// write_word over consecutive words from `addr`, copied page by page;
  /// drops every LR reservation on the range. Pre: the range lies in the
  /// window.
  void write_words(u32 addr, std::span<const u32> words);
  /// Zero every word and drop every LR reservation, as on a fresh memory
  /// (the pages a run wrote stay allocated, zeroed).
  void clear();

  // ---- timed interface -----------------------------------------------------
  /// Enqueue a scalar request (always accepted; the paper's model has no
  /// request-channel back-pressure, only a bandwidth cap).
  void enqueue(const MemRequest& request, sim::Cycle now);

  /// Enqueue an instruction-cache line refill of `bytes`; `token`
  /// identifies the refill to the caller.
  void enqueue_refill(u32 token, u32 bytes, sim::Cycle now);

  /// Advance one cycle; completed scalar responses are appended to
  /// `responses`, completed refill tokens to `refills`.
  ///
  /// `bulk_demand_bytes` is the aggregate backlog the bulk (DMA) class
  /// will try to claim this cycle (see claim_bulk). With the bounded-share
  /// arbiter enabled, the scalar FIFO is only served from the byte budget
  /// left after reserving the bulk class its guaranteed share — a
  /// reservation made only while demand exists, so an idle DMA subsystem
  /// costs scalar traffic nothing.
  void step(sim::Cycle now, std::vector<MemResponse>& responses,
            std::vector<u32>& refills, u64 bulk_demand_bytes);
  void step(sim::Cycle now, std::vector<MemResponse>& responses,
            std::vector<u32>& refills) {
    step(now, responses, refills, 0);
  }

  /// Claim up to `bytes` of the current cycle's remaining byte budget for a
  /// bulk (DMA) transfer; returns the granted amount. Must be called after
  /// step(): the scalar FIFO is served first from its share of the cycle's
  /// budget, and bulk engines arbitrate for the reserve plus whatever the
  /// FIFO left over, so DMA can saturate an idle channel without starving
  /// the cores — and, with a nonzero bulk_min_pct, is itself guaranteed
  /// forward progress under scalar saturation.
  u32 claim_bulk(u32 bytes, sim::Cycle now);

  /// Advance `cycles` cycles from `first` that carry no scalar traffic,
  /// each the same as step(c, ..., demand_c) followed by bulk claims of
  /// `grant` bytes, where demand_c = bulk_demand - (c - first) * grant: the
  /// DMA engines streaming alone through a fast-forward jump. Every
  /// counter, the arbiter's credit and every trace event come out as that
  /// loop leaves them; only the first cycle (which settles what the cycle
  /// before left open) and, at a nonzero bulk share, the credit are
  /// advanced cycle by cycle. Pre: the scalar FIFO is empty, nothing in
  /// flight completes before first + cycles, `grant` fits the budget, and
  /// demand is nonzero on every cycle iff `grant` is.
  void stream(sim::Cycle first, u64 cycles, u64 bulk_demand, u32 grant);

  u32 bytes_per_cycle() const { return bytes_per_cycle_; }
  const GmemArbiterConfig& arbiter() const { return arbiter_; }

  /// Change the live bulk guarantee (the QoS controller's actuator).
  /// Validated like GmemArbiterConfig::bulk_min_pct (throws
  /// std::invalid_argument above 90). Outstanding deficit credit is
  /// rescaled to the new share's cap — and dropped entirely when the
  /// share is lowered to zero — so a decayed share cannot keep bursting
  /// bulk traffic out of credit earned under the old, larger guarantee.
  void set_bulk_share(u32 bulk_min_pct);

  /// Attach the event trace (nullptr detaches). `bulk_track`/`scalar_track`
  /// are the trace rows for the two traffic classes; the arbiter emits
  /// stall spans on them and deficit-reset instants on the bulk row.
  void set_trace(obs::Trace* trace, u32 bulk_track, u32 scalar_track);
  /// Close any open stall spans at `now` (end of run) so the exported
  /// trace is balanced.
  void close_trace_spans(sim::Cycle now);

  /// Earliest cycle the scalar side can complete something — a response
  /// or an icache refill — for the cluster's wake oracle. While the scalar
  /// FIFO holds requests, service order and stall verdicts are decided
  /// cycle by cycle, so the answer is `now + 1`. Otherwise it is the
  /// oldest in-flight completion (`done_at` is monotone), or kNever when
  /// nothing is in flight. Bulk traffic never completes anything here (the
  /// DMA engines own their completions), so bulk demand, arbiter credit
  /// and open stall spans do not pin the next cycle: stream() advances
  /// them through a jump.
  sim::Cycle next_completion_cycle(sim::Cycle now) const {
    if (!queue_.empty()) {
      return now + 1;
    }
    if (!in_flight_.empty()) {
      return in_flight_.front().done_at;
    }
    return sim::kNever;
  }

  /// Bytes of the current cycle's budget still unclaimed (after step()
  /// and every claim_bulk() so far this cycle).
  u64 budget_left() const { return budget_; }

  u64 bytes_transferred() const { return bytes_transferred_; }
  u64 scalar_bytes() const { return scalar_bytes_; }
  u64 bulk_bytes() const { return bulk_bytes_; }
  u64 bulk_stall_cycles() const { return bulk_stall_cycles_; }
  /// Cycles step() was handed nonzero bulk demand (the QoS controller's
  /// demand-pressure signal; counted under every policy, share 0 included).
  u64 bulk_demand_cycles() const { return bulk_demand_cycles_; }
  void add_counters(sim::CounterSet& counters) const;

  /// Drop queued/in-flight traffic, LR reservations and arbiter credit,
  /// and zero all statistics; storage is untouched. Called between program
  /// loads on one cluster.
  void reset_run_state();

 private:
  struct Item {
    bool is_refill = false;
    u32 bytes = 0;
    MemRequest req;
    u32 token = 0;
  };
  struct InFlight {
    sim::Cycle done_at;
    Item item;
  };

  u32 base_;
  u64 size_;
  u32 bytes_per_cycle_;
  u32 latency_;
  GmemArbiterConfig arbiter_;
  u64 budget_ = 0;  ///< carried byte budget within the current cycle only
  std::deque<Item> queue_;
  std::deque<InFlight> in_flight_;
  /// Page table over the window, indexed by page number; a page stays an
  /// empty vector until its first write.
  std::vector<std::vector<u32>> pages_;

  // ---- bounded-share arbiter state ---------------------------------------
  // Credit owed to the bulk class, in hundredths of a byte so a share like
  // 25 % of a 4 B/cycle channel (1 B/cycle) accrues without rounding loss.
  // Accrued each demand cycle, spent by claim_bulk, capped at
  // deficit_cap_cycles cycles' worth of guarantee, zeroed when demand
  // disappears (the channel cannot bank idle cycles).
  u64 bulk_credit_x100_ = 0;
  u64 pending_bulk_demand_ = 0;   ///< demand reported to the last step()
  u64 bulk_granted_in_cycle_ = 0; ///< bytes claim_bulk granted since last step()
  u64 bulk_reserve_in_cycle_ = 0; ///< credit-funded bytes still claimable this cycle
  u64 bulk_credit_accrued_x100_ = 0;  ///< lifetime accrual (statistic only)

  // ---- event trace (optional; null when telemetry is off) -----------------
  obs::Trace* trace_ = nullptr;
  u32 bulk_track_ = 0;
  u32 scalar_track_ = 0;
  u32 ev_bulk_stall_ = 0;
  u32 ev_scalar_stall_ = 0;
  u32 ev_deficit_reset_ = 0;
  bool in_bulk_stall_ = false;
  bool in_scalar_stall_ = false;

  /// LR/SC reservations on this memory's words, by word index
  /// (arch/word_op.hpp holds the rule).
  Reservations reservations_;

  u64 bytes_transferred_ = 0;
  u64 scalar_bytes_ = 0;
  u64 bulk_bytes_ = 0;
  u64 busy_cycles_ = 0;
  u64 requests_served_ = 0;
  u64 scalar_stall_cycles_ = 0;  ///< scalar queued but granted 0 B (reserve)
  u64 bulk_stall_cycles_ = 0;    ///< bulk demand present but granted 0 B
  u64 bulk_demand_cycles_ = 0;   ///< cycles stepped with nonzero bulk demand
  sim::Cycle busy_stamp_ = ~sim::Cycle{0};  ///< last cycle counted as busy

  static constexpr u32 kPageWords = 16384;  ///< 64 KiB pages

  /// The head of a cycle, before any scalar byte is served: the verdict
  /// on the previous cycle's bulk grants, the fresh byte budget, the bulk
  /// reserve and the scalar stall verdict (step() and stream() share it).
  void open_cycle(sim::Cycle now, u64 bulk_demand_bytes);

  /// Index of the word holding `addr` (pre: in the window, asserted).
  u32 word_index(u32 addr) const;
  /// The word with index `index`, allocating its page on first touch.
  u32& word_ref(u32 index);
};

}  // namespace mp3d::arch
