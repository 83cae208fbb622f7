// SPDX-License-Identifier: Apache-2.0
#include "arch/global_mem.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace mp3d::arch {

GlobalMemory::GlobalMemory(u32 base, u64 size, u32 bytes_per_cycle, u32 latency,
                           GmemArbiterConfig arbiter)
    : base_(base),
      size_(size),
      bytes_per_cycle_(bytes_per_cycle),
      latency_(latency),
      arbiter_(arbiter),
      pages_((size + kPageWords * 4 - 1) / (kPageWords * 4)) {}

u32 GlobalMemory::word_index(u32 addr) const {
  MP3D_ASSERT_MSG(addr >= base_ && static_cast<u64>(addr) - base_ < size_,
                  "gmem address out of range: 0x" << std::hex << addr);
  return (addr - base_) / 4;
}

u32& GlobalMemory::word_ref(u32 index) {
  std::vector<u32>& page = pages_[index / kPageWords];
  if (page.empty()) {
    page.assign(kPageWords, 0);
  }
  return page[index % kPageWords];
}

u32 GlobalMemory::read_word(u32 addr) const {
  const u32 index = word_index(addr);
  const std::vector<u32>& page = pages_[index / kPageWords];
  return page.empty() ? 0 : page[index % kPageWords];
}

void GlobalMemory::read_words(u32 addr, std::span<u32> words) const {
  const u64 first = ((addr & ~3U) - static_cast<u64>(base_)) / 4;
  MP3D_ASSERT_MSG(addr >= base_ && (first + words.size()) * 4 <= size_,
                  "gmem read out of range: 0x" << std::hex << addr << " + "
                                               << std::dec << words.size() << " words");
  for (std::size_t done = 0; done < words.size();) {
    const u64 word = first + done;
    const std::vector<u32>& page = pages_[word / kPageWords];
    const std::size_t offset = word % kPageWords;
    const std::size_t run = std::min<std::size_t>(words.size() - done, kPageWords - offset);
    const auto out = words.begin() + static_cast<std::ptrdiff_t>(done);
    if (page.empty()) {
      std::fill_n(out, run, 0U);
    } else {
      std::copy_n(page.begin() + static_cast<std::ptrdiff_t>(offset), run, out);
    }
    done += run;
  }
}

void GlobalMemory::write_word(u32 addr, u32 value) {
  const u32 index = word_index(addr);
  reservations_.drop_words(index, 1);
  word_ref(index) = value;
}

void GlobalMemory::write_words(u32 addr, std::span<const u32> words) {
  const u64 first = ((addr & ~3U) - static_cast<u64>(base_)) / 4;
  MP3D_ASSERT_MSG(addr >= base_ && (first + words.size()) * 4 <= size_,
                  "gmem write out of range: 0x" << std::hex << addr << " + "
                                                << std::dec << words.size() << " words");
  reservations_.drop_words(first, words.size());
  for (std::size_t done = 0; done < words.size();) {
    const u64 word = first + done;
    std::vector<u32>& page = pages_[word / kPageWords];
    if (page.empty()) {
      page.assign(kPageWords, 0);
    }
    const std::size_t offset = word % kPageWords;
    const std::size_t run = std::min<std::size_t>(words.size() - done, kPageWords - offset);
    std::copy_n(words.begin() + static_cast<std::ptrdiff_t>(done), run,
                page.begin() + static_cast<std::ptrdiff_t>(offset));
    done += run;
  }
}

void GlobalMemory::enqueue(const MemRequest& request, sim::Cycle /*now*/) {
  Item item;
  item.is_refill = false;
  // The off-chip port moves whole words; sub-word accesses still occupy a
  // word slot on the bus.
  item.bytes = 4;
  item.req = request;
  queue_.push_back(item);
}

void GlobalMemory::enqueue_refill(u32 token, u32 bytes, sim::Cycle /*now*/) {
  Item item;
  item.is_refill = true;
  item.bytes = bytes;
  item.token = token;
  queue_.push_back(item);
}

void GlobalMemory::open_cycle(sim::Cycle now, u64 bulk_demand_bytes) {
  // A cycle with bulk demand and zero granted bulk bytes is a bulk stall
  // (under the legacy absolute-priority policy this is the starvation
  // signature; under the bounded-share arbiter it only happens while the
  // reserve is still accruing toward a whole byte).
  const bool bulk_stalled = pending_bulk_demand_ > 0 && bulk_granted_in_cycle_ == 0;
  if (bulk_stalled) {
    ++bulk_stall_cycles_;
  }
  if (trace_ != nullptr) {
    // The stall verdict computed here is about the *previous* cycle (the
    // grants it is checking happened after the last step()).
    const sim::Cycle prev = now == 0 ? 0 : now - 1;
    if (bulk_stalled && !in_bulk_stall_) {
      trace_->begin(bulk_track_, ev_bulk_stall_, prev);
      in_bulk_stall_ = true;
    } else if (!bulk_stalled && in_bulk_stall_) {
      trace_->end(bulk_track_, ev_bulk_stall_, prev);
      in_bulk_stall_ = false;
    }
  }
  pending_bulk_demand_ = bulk_demand_bytes;
  bulk_granted_in_cycle_ = 0;
  if (bulk_demand_bytes > 0) {
    ++bulk_demand_cycles_;
  }

  // Refresh the cycle's byte budget. Bandwidth does not accumulate across
  // idle cycles (a DDR channel cannot bank unused cycles).
  budget_ = bytes_per_cycle_;

  // Bounded-share reservation: while bulk demand exists, accrue the bulk
  // class its guaranteed share as credit (hundredths of a byte) and hold
  // the whole-byte part of it back from the scalar FIFO this cycle. Credit
  // the engines could not spend carries over as a deficit, capped so a
  // long-armed deficit cannot burst scalar latency unboundedly; when
  // demand disappears the credit is dropped entirely.
  u64 reserve = 0;
  if (arbiter_.bulk_min_pct > 0) {
    if (bulk_demand_bytes > 0) {
      bulk_credit_x100_ +=
          static_cast<u64>(bytes_per_cycle_) * arbiter_.bulk_min_pct;
      bulk_credit_accrued_x100_ +=
          static_cast<u64>(bytes_per_cycle_) * arbiter_.bulk_min_pct;
      const u64 cap = static_cast<u64>(arbiter_.deficit_cap_cycles) *
                      bytes_per_cycle_ * arbiter_.bulk_min_pct;
      bulk_credit_x100_ = std::min(bulk_credit_x100_, cap);
      reserve = std::min({bulk_credit_x100_ / 100, budget_, bulk_demand_bytes});
    } else {
      if (trace_ != nullptr && bulk_credit_x100_ > 0) {
        trace_->instant(bulk_track_, ev_deficit_reset_, now, bulk_credit_x100_ / 100);
      }
      bulk_credit_x100_ = 0;
    }
  }
  bulk_reserve_in_cycle_ = reserve;

  const bool scalar_stalled = !queue_.empty() && budget_ == reserve;
  if (scalar_stalled) {
    ++scalar_stall_cycles_;
  }
  if (trace_ != nullptr) {
    if (scalar_stalled && !in_scalar_stall_) {
      trace_->begin(scalar_track_, ev_scalar_stall_, now);
      in_scalar_stall_ = true;
    } else if (!scalar_stalled && in_scalar_stall_) {
      trace_->end(scalar_track_, ev_scalar_stall_, now);
      in_scalar_stall_ = false;
    }
  }
}

void GlobalMemory::step(sim::Cycle now, std::vector<MemResponse>& responses,
                        std::vector<u32>& refills, u64 bulk_demand_bytes) {
  open_cycle(now, bulk_demand_bytes);
  u64 scalar_budget = budget_ - bulk_reserve_in_cycle_;
  const bool was_busy = !queue_.empty();
  while (!queue_.empty() && scalar_budget > 0) {
    Item& head = queue_.front();
    const u32 take = static_cast<u32>(std::min<u64>(scalar_budget, head.bytes));
    head.bytes -= take;
    scalar_budget -= take;
    budget_ -= take;
    bytes_transferred_ += take;
    scalar_bytes_ += take;
    if (head.bytes == 0) {
      in_flight_.push_back(InFlight{now + latency_, head});
      queue_.pop_front();
      ++requests_served_;
    }
  }
  if (was_busy && busy_stamp_ != now) {
    busy_stamp_ = now;
    ++busy_cycles_;
  }
  while (!in_flight_.empty() && in_flight_.front().done_at <= now) {
    Item item = in_flight_.front().item;
    in_flight_.pop_front();
    if (item.is_refill) {
      refills.push_back(item.token);
      continue;
    }
    const MemRequest& req = item.req;
    const u32 index = word_index(req.addr);
    responses.push_back(MemResponse{execute_word_op(req.op, req.addr & 3U, req.wdata, req.core,
                                                    index, word_ref(index), reservations_),
                                    req.core, req.tag});
  }
}

u32 GlobalMemory::claim_bulk(u32 bytes, sim::Cycle now) {
  const u32 granted = static_cast<u32>(std::min<u64>(budget_, bytes));
  budget_ -= granted;
  bytes_transferred_ += granted;
  bulk_bytes_ += granted;
  bulk_granted_in_cycle_ += granted;
  // Charge the credit only for the bytes this cycle's *reserve* funded;
  // bytes granted beyond it came from the scalar FIFO's leftovers and are
  // free. (Charging every granted byte would let a leftover-funded grant
  // wipe the fractional credit a small share accrues across cycles.)
  const u64 from_reserve = std::min<u64>(granted, bulk_reserve_in_cycle_);
  bulk_reserve_in_cycle_ -= from_reserve;
  bulk_credit_x100_ -= std::min<u64>(bulk_credit_x100_, from_reserve * 100);
  if (granted > 0 && busy_stamp_ != now) {
    busy_stamp_ = now;
    ++busy_cycles_;
  }
  return granted;
}

void GlobalMemory::stream(sim::Cycle first, u64 cycles, u64 bulk_demand, u32 grant) {
  MP3D_ASSERT(cycles > 0 && queue_.empty() && grant <= bytes_per_cycle_);
  MP3D_ASSERT((grant > 0) == (bulk_demand > 0) && (cycles - 1) * grant < std::max<u64>(bulk_demand, 1));
  MP3D_ASSERT(in_flight_.empty() || in_flight_.front().done_at >= first + cycles);
  // The first cycle settles what the cycle before left: a stall verdict
  // and its span, the scalar stall span, credit with no demand left. The
  // second closes a bulk stall span the first opened. At a nonzero share
  // the credit moves on every demand cycle.
  u64 done = 0;
  do {
    open_cycle(first + done, bulk_demand - done * grant);
    claim_bulk(grant, first + done);
    ++done;
  } while (done < cycles && (in_bulk_stall_ || (arbiter_.bulk_min_pct > 0 && bulk_demand > 0)));
  // The rest repeat the last one: its grant (or its lack of demand) rules
  // out a stall, no credit moves and no trace event fires.
  const u64 rest = cycles - done;
  if (rest == 0) {
    return;
  }
  pending_bulk_demand_ = bulk_demand - (cycles - 1) * grant;
  bulk_demand_cycles_ += bulk_demand > 0 ? rest : 0;
  bytes_transferred_ += rest * grant;
  bulk_bytes_ += rest * grant;
  if (grant > 0) {
    busy_cycles_ += rest;
    busy_stamp_ = first + cycles - 1;
  }
}

void GlobalMemory::set_bulk_share(u32 bulk_min_pct) {
  MP3D_CHECK(bulk_min_pct <= 90,
             "bulk minimum share must leave scalar traffic at least 10 %");
  if (bulk_min_pct == arbiter_.bulk_min_pct) {
    return;
  }
  arbiter_.bulk_min_pct = bulk_min_pct;
  if (bulk_min_pct == 0) {
    // Back to the legacy absolute-priority policy: no guarantee, no credit.
    bulk_credit_x100_ = 0;
    bulk_reserve_in_cycle_ = 0;
    return;
  }
  // Rescale outstanding credit to the new share's deficit cap so a
  // freshly-decayed share cannot keep bursting bulk traffic out of credit
  // earned under the old, larger guarantee.
  const u64 cap = static_cast<u64>(arbiter_.deficit_cap_cycles) *
                  bytes_per_cycle_ * arbiter_.bulk_min_pct;
  bulk_credit_x100_ = std::min(bulk_credit_x100_, cap);
}

void GlobalMemory::set_trace(obs::Trace* trace, u32 bulk_track, u32 scalar_track) {
  trace_ = trace;
  bulk_track_ = bulk_track;
  scalar_track_ = scalar_track;
  if (trace_ != nullptr) {
    ev_bulk_stall_ = trace_->intern("bulk_stall");
    ev_scalar_stall_ = trace_->intern("scalar_stall");
    ev_deficit_reset_ = trace_->intern("deficit_reset");
  }
}

void GlobalMemory::close_trace_spans(sim::Cycle now) {
  if (trace_ == nullptr) {
    return;
  }
  if (in_bulk_stall_) {
    trace_->end(bulk_track_, ev_bulk_stall_, now);
    in_bulk_stall_ = false;
  }
  if (in_scalar_stall_) {
    trace_->end(scalar_track_, ev_scalar_stall_, now);
    in_scalar_stall_ = false;
  }
}

void GlobalMemory::reset_run_state() {
  queue_.clear();
  in_flight_.clear();
  reservations_.clear();
  budget_ = 0;
  bulk_credit_x100_ = 0;
  pending_bulk_demand_ = 0;
  bulk_granted_in_cycle_ = 0;
  bulk_reserve_in_cycle_ = 0;
  bulk_credit_accrued_x100_ = 0;
  in_bulk_stall_ = false;
  in_scalar_stall_ = false;
  bytes_transferred_ = 0;
  scalar_bytes_ = 0;
  bulk_bytes_ = 0;
  busy_cycles_ = 0;
  requests_served_ = 0;
  scalar_stall_cycles_ = 0;
  bulk_stall_cycles_ = 0;
  bulk_demand_cycles_ = 0;
  busy_stamp_ = ~sim::Cycle{0};
}

void GlobalMemory::add_counters(sim::CounterSet& counters) const {
  counters.set("gmem.bytes", bytes_transferred_);
  counters.set("gmem.scalar_bytes", scalar_bytes_);
  counters.set("gmem.bulk_bytes", bulk_bytes_);
  counters.set("gmem.busy_cycles", busy_cycles_);
  counters.set("gmem.requests", requests_served_);
  counters.set("gmem.scalar_stall_cycles", scalar_stall_cycles_);
  counters.set("gmem.bulk_stall_cycles", bulk_stall_cycles_);
  counters.set("gmem.bulk_demand_cycles", bulk_demand_cycles_);
  if (arbiter_.bulk_min_pct > 0) {
    counters.set("gmem.bulk_credit_accrued_x100", bulk_credit_accrued_x100_);
  }
}

}  // namespace mp3d::arch
