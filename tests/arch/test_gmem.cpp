// SPDX-License-Identifier: Apache-2.0
// Off-chip memory model: bandwidth cap, FIFO fairness, functional access.
#include <gtest/gtest.h>

#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;

TEST(GlobalMemoryUnit, BackdoorSparseStorage) {
  GlobalMemory g(0x80000000, MiB(64), 16, 2);
  EXPECT_EQ(g.read_word(0x80000000), 0U);
  g.write_word(0x80000000, 42);
  g.write_word(0x83FFFFFC, 7);  // last word of the window
  EXPECT_EQ(g.read_word(0x80000000), 42U);
  EXPECT_EQ(g.read_word(0x83FFFFFC), 7U);
}

TEST(GlobalMemoryUnit, BandwidthBoundsServiceRate) {
  // 4 B/cycle: serving N word loads takes >= N cycles of service.
  GlobalMemory g(0x80000000, MiB(1), 4, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  const int n = 32;
  for (int i = 0; i < n; ++i) {
    MemRequest req;
    req.addr = 0x80000000 + 4 * i;
    req.op = isa::Op::kLw;
    req.core = 0;
    req.tag = static_cast<u8>(i % 8);
    g.enqueue(req, 0);
  }
  int completed = 0;
  sim::Cycle cycle = 0;
  while (completed < n && cycle < 1000) {
    ++cycle;
    responses.clear();
    refills.clear();
    g.step(cycle, responses, refills);
    completed += static_cast<int>(responses.size());
    EXPECT_LE(responses.size(), 1U);  // 4 B/cycle = at most one word/cycle
  }
  EXPECT_EQ(completed, n);
  EXPECT_GE(cycle, static_cast<sim::Cycle>(n));
}

TEST(GlobalMemoryUnit, WiderBusServesMultiplePerCycle) {
  GlobalMemory g(0x80000000, MiB(1), 64, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  for (int i = 0; i < 16; ++i) {
    MemRequest req;
    req.addr = 0x80000000 + 4 * i;
    req.op = isa::Op::kLw;
    g.enqueue(req, 0);
  }
  g.step(1, responses, refills);
  EXPECT_EQ(responses.size(), 16U);  // 64 B/cycle = 16 words at once
}

TEST(GlobalMemoryUnit, RefillTokensComplete) {
  GlobalMemory g(0x80000000, MiB(1), 16, 3);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  g.enqueue_refill(77, 32, 0);
  sim::Cycle cycle = 0;
  while (refills.empty() && cycle < 100) {
    ++cycle;
    responses.clear();
    g.step(cycle, responses, refills);
  }
  ASSERT_EQ(refills.size(), 1U);
  EXPECT_EQ(refills[0], 77U);
  // 32 bytes at 16 B/cycle = 2 cycles + 3 latency.
  EXPECT_EQ(cycle, 5U);
}

TEST(GlobalMemoryUnit, CountersTrackBytes) {
  GlobalMemory g(0x80000000, MiB(1), 16, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  MemRequest req;
  req.addr = 0x80000000;
  req.op = isa::Op::kLw;
  g.enqueue(req, 0);
  g.step(1, responses, refills);
  sim::CounterSet c;
  g.add_counters(c);
  EXPECT_EQ(c.get("gmem.bytes"), 4U);
  EXPECT_EQ(c.get("gmem.requests"), 1U);
}

TEST(GlobalMemoryUnit, SubWordStoreOccupiesFullWordSlot) {
  // The off-chip port moves whole words: a byte store costs a 4 B word
  // slot on the bus, so two byte stores at 4 B/cycle serialize over two
  // service cycles and account 8 channel bytes.
  GlobalMemory g(0x80000000, MiB(1), 4, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  for (int i = 0; i < 2; ++i) {
    MemRequest req;
    req.addr = 0x80000000 + static_cast<u32>(i);
    req.op = isa::Op::kSb;
    req.wdata = 0xAA;
    g.enqueue(req, 0);
  }
  g.step(1, responses, refills);
  EXPECT_EQ(responses.size(), 1U);
  g.step(2, responses, refills);
  EXPECT_EQ(responses.size(), 2U);
  sim::CounterSet c;
  g.add_counters(c);
  EXPECT_EQ(c.get("gmem.bytes"), 8U);
}

TEST(GlobalMemoryUnit, LrScReservationTracking) {
  GlobalMemory g(0x80000000, MiB(1), 64, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  const u32 addr = 0x80000100;
  g.write_word(addr, 5);
  sim::Cycle cycle = 0;
  const auto access = [&](isa::Op op, u16 core, u32 wdata) {
    MemRequest req;
    req.addr = addr;
    req.op = op;
    req.core = core;
    req.wdata = wdata;
    g.enqueue(req, 0);
    responses.clear();
    refills.clear();
    g.step(++cycle, responses, refills);
    EXPECT_EQ(responses.size(), 1U);
    return responses.empty() ? 0U : responses[0].rdata;
  };

  // Unclobbered LR/SC pair succeeds (SC returns 0) and stores.
  EXPECT_EQ(access(isa::Op::kLrW, 0, 0), 5U);
  EXPECT_EQ(access(isa::Op::kScW, 0, 6), 0U);
  EXPECT_EQ(g.read_word(addr), 6U);

  // A second SC without a fresh reservation fails and does not store.
  EXPECT_EQ(access(isa::Op::kScW, 0, 7), 1U);
  EXPECT_EQ(g.read_word(addr), 6U);

  // An intervening store by ANOTHER core clobbers the reservation.
  EXPECT_EQ(access(isa::Op::kLrW, 0, 0), 6U);
  EXPECT_EQ(access(isa::Op::kSw, 1, 40), 0U);
  EXPECT_EQ(access(isa::Op::kScW, 0, 8), 1U);
  EXPECT_EQ(g.read_word(addr), 40U);

  // A functional write (the DMA bulk / host backdoor path) clobbers too.
  EXPECT_EQ(access(isa::Op::kLrW, 0, 0), 40U);
  g.write_word(addr, 50);
  EXPECT_EQ(access(isa::Op::kScW, 0, 9), 1U);
  EXPECT_EQ(g.read_word(addr), 50U);

  // The reserving core's own plain store keeps its reservation (as on the
  // SPM banks), so its SC still succeeds.
  EXPECT_EQ(access(isa::Op::kLrW, 0, 0), 50U);
  EXPECT_EQ(access(isa::Op::kSw, 0, 51), 0U);
  EXPECT_EQ(access(isa::Op::kScW, 0, 52), 0U);
  EXPECT_EQ(g.read_word(addr), 52U);
}

TEST(GlobalMemoryUnit, BulkWriteClobbersReservationsOnItsRange) {
  GlobalMemory g(0x80000000, MiB(1), 64, 0);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  sim::Cycle cycle = 0;
  const auto access = [&](isa::Op op, u16 core, u32 addr, u32 wdata) {
    MemRequest req;
    req.addr = addr;
    req.op = op;
    req.core = core;
    req.wdata = wdata;
    g.enqueue(req, 0);
    responses.clear();
    refills.clear();
    g.step(++cycle, responses, refills);
    EXPECT_EQ(responses.size(), 1U);
    return responses.empty() ? 0U : responses[0].rdata;
  };
  // Core 0 reserves the last word of the range, core 1 the word after it.
  const u32 first = 0x80000100;
  const u32 last = first + 12;
  access(isa::Op::kLrW, 0, last, 0);
  access(isa::Op::kLrW, 1, last + 4, 0);
  g.write_words(first, std::vector<u32>{1, 2, 3, 4});
  EXPECT_EQ(access(isa::Op::kScW, 0, last, 9), 1U);
  EXPECT_EQ(g.read_word(last), 4U);
  EXPECT_EQ(access(isa::Op::kScW, 1, last + 4, 9), 0U);
  EXPECT_EQ(g.read_word(last + 4), 9U);
}

namespace {

/// Drive `cycles` of a scalar-saturated channel (two queued word loads per
/// cycle at 4 B/cycle) against an always-hungry bulk claimant; returns the
/// bulk bytes granted. A deliberately minimal mirror of the step/claim
/// protocol exp::run_channel_soak (src/exp/channel_soak.cpp) sweeps at
/// scale — kept separate so these unit tests pin the raw GlobalMemory
/// contract (exact per-counter values) with no exp-layer in between; a
/// change to the demand/claim call order must update both drivers.
u64 run_saturated(GlobalMemory& g, u64 cycles, sim::Cycle start = 0) {
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  u64 bulk = 0;
  for (u64 i = 1; i <= cycles; ++i) {
    const sim::Cycle now = start + i;
    for (int k = 0; k < 2; ++k) {
      MemRequest req;
      req.addr = 0x80000000 + static_cast<u32>(((i * 2 + k) * 4) % 4096);
      req.op = isa::Op::kLw;
      g.enqueue(req, now);
    }
    responses.clear();
    refills.clear();
    g.step(now, responses, refills, /*bulk_demand_bytes=*/1 << 20);
    bulk += g.claim_bulk(4, now);
  }
  return bulk;
}

}  // namespace

TEST(GmemArbiter, AbsolutePriorityStarvesBulk) {
  // The legacy default (bulk_min_pct = 0): a scalar-saturated 4 B/cycle
  // channel grants bulk claims nothing, indefinitely.
  GlobalMemory g(0x80000000, MiB(1), 4, 0);
  EXPECT_EQ(run_saturated(g, 400), 0U);
  sim::CounterSet c;
  g.add_counters(c);
  EXPECT_GT(c.get("gmem.bulk_stall_cycles"), 0U);
  EXPECT_EQ(c.get("gmem.bulk_bytes"), 0U);
  EXPECT_EQ(c.get("gmem.scalar_bytes"), c.get("gmem.bytes"));
}

TEST(GmemArbiter, BoundedShareGuaranteesBulkMinimum) {
  // Regression for the starvation bug: with a 25 % bulk guarantee the same
  // scalar-saturated channel must still grant bulk its minimum share.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 25;
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  const u64 cycles = 400;
  const u64 bulk = run_saturated(g, cycles);
  // 25 % of 4 B/cycle = 1 B/cycle guaranteed; integer credit accrual loses
  // at most a fraction of a byte overall.
  EXPECT_GE(bulk, cycles * 4 * 25 / 100 - 4);
  sim::CounterSet c;
  g.add_counters(c);
  EXPECT_EQ(c.get("gmem.bulk_bytes") + c.get("gmem.scalar_bytes"),
            c.get("gmem.bytes"));
  // Scalar still gets its complement: the channel stays fully busy.
  EXPECT_GE(c.get("gmem.scalar_bytes"), cycles * 4 * 70 / 100);
}

TEST(GmemArbiter, IdleBulkCostsScalarNothing) {
  // With no bulk demand the reservation must not be made: scalar traffic
  // gets the whole channel even with a 50 % bulk bound configured.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 50;
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  for (int i = 0; i < 8; ++i) {
    MemRequest req;
    req.addr = 0x80000000 + 4 * i;
    req.op = isa::Op::kLw;
    g.enqueue(req, 0);
  }
  sim::Cycle cycle = 0;
  int completed = 0;
  while (completed < 8 && cycle < 100) {
    ++cycle;
    responses.clear();
    refills.clear();
    g.step(cycle, responses, refills, /*bulk_demand_bytes=*/0);
    completed += static_cast<int>(responses.size());
  }
  // 8 words x 4 B at 4 B/cycle = 8 cycles, as without an arbiter.
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(cycle, 8U);
}

TEST(GmemArbiter, LeftoverFundedGrantsPreserveDeficitCredit) {
  // Credit-accounting regression: at a small share on a narrow channel the
  // guarantee accrues at a fraction of a byte per cycle (10 % of 4 B/cycle
  // = 40 hundredths), so credit needs three demand cycles to mature into a
  // whole byte. Alternate two scalar-saturated cycles (shorter than that
  // maturity time) with two scalar-idle cycles in which bulk is granted
  // pure channel *leftovers*. Those leftover-funded grants must not be
  // charged against the credit — the buggy accounting deducted every
  // granted byte, wiping the carried fraction at each lull, so the
  // guarantee never matured and saturated cycles granted bulk nothing,
  // ever.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 10;
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  u64 bulk_in_saturated_cycles = 0;
  for (u64 cycle = 1; cycle <= 400; ++cycle) {
    // 4-cycle pattern: two saturated cycles (one word = the full 4 B
    // budget each), two idle cycles (any backlog a reserve displaced
    // drains here, so the next lull really is leftovers).
    const bool saturated = cycle % 4 == 1 || cycle % 4 == 2;
    if (saturated) {
      MemRequest req;
      req.addr = 0x80000000 + static_cast<u32>((cycle * 4) % 4096);
      req.op = isa::Op::kLw;
      g.enqueue(req, cycle);
    }
    responses.clear();
    refills.clear();
    g.step(cycle, responses, refills, /*bulk_demand_bytes=*/1 << 20);
    const u32 granted = g.claim_bulk(4, cycle);
    if (saturated) {
      bulk_in_saturated_cycles += granted;
    }
  }
  // With credit preserved across the lulls it matures at 0.4 B/cycle and
  // the saturated stretches see their guaranteed bytes.
  EXPECT_GE(bulk_in_saturated_cycles, 20U);
}

TEST(GmemArbiter, RuntimeShareRaiseTakesEffect) {
  // set_bulk_share is the QoS controller's actuator: raising the share on
  // a live, scalar-saturated channel must start granting bulk its new
  // minimum from that point on.
  GlobalMemory g(0x80000000, MiB(1), 4, 0);  // legacy default: share 0
  EXPECT_EQ(run_saturated(g, 100), 0U);
  g.set_bulk_share(25);
  const u64 bulk = run_saturated(g, 200, /*start=*/100);
  // 25 % of 4 B/cycle over 200 cycles, minus fractional-credit rounding.
  EXPECT_GE(bulk, 200U * 4 * 25 / 100 - 4);
}

TEST(GmemArbiter, LoweringShareToZeroDropsCredit) {
  // Decaying to share 0 restores the legacy absolute-priority policy
  // immediately: outstanding credit must be dropped, not spent.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 50;
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  EXPECT_GT(run_saturated(g, 100), 0U);
  g.set_bulk_share(0);
  EXPECT_EQ(run_saturated(g, 100, /*start=*/100), 0U);
}

TEST(GmemArbiter, LoweringShareRescalesCreditToNewCap) {
  // Credit banked under a large share must be clamped to the smaller
  // share's deficit cap, so a freshly-decayed share cannot keep bursting
  // bulk traffic at the old guarantee.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 50;
  arb.deficit_cap_cycles = 8;
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  // Accrue credit to the 50 % cap (8 cycles x 2 B/cycle = 16 B) by
  // reporting bulk demand without claiming.
  for (u64 cycle = 1; cycle <= 20; ++cycle) {
    responses.clear();
    refills.clear();
    g.step(cycle, responses, refills, /*bulk_demand_bytes=*/1 << 20);
  }
  g.set_bulk_share(10);  // new cap: 8 cycles x 0.4 B/cycle = 3.2 B
  const u64 burst = run_saturated(g, 5, /*start=*/20);
  // Unrescaled credit would burst 4 B/cycle (16 B in 4 cycles); the
  // clamped credit plus fresh accrual allows at most ~5 B.
  EXPECT_LE(burst, 6U);
  EXPECT_GT(burst, 0U);
}

TEST(GmemArbiter, RuntimeShareValidatedLikeConfig) {
  GlobalMemory g(0x80000000, MiB(1), 4, 0);
  EXPECT_THROW(g.set_bulk_share(91), std::invalid_argument);
  EXPECT_NO_THROW(g.set_bulk_share(90));
}

TEST(GmemArbiter, ResetClearsDeficitAndShareCounters) {
  // Back-to-back runs must be bit-identical: reset_run_state has to clear
  // the arbiter's credit/deficit state and every share counter, even when
  // the first run stops mid-stream with credit outstanding.
  GmemArbiterConfig arb;
  arb.bulk_min_pct = 30;  // does not divide the 4 B budget: credit carries
  GlobalMemory g(0x80000000, MiB(1), 4, 0, arb);
  const u64 first_bulk = run_saturated(g, 123);
  sim::CounterSet first;
  g.add_counters(first);
  g.reset_run_state();
  const u64 second_bulk = run_saturated(g, 123);
  sim::CounterSet second;
  g.add_counters(second);
  EXPECT_EQ(first_bulk, second_bulk);
  for (const auto& [name, value] : first.all()) {
    EXPECT_EQ(second.get(name), value) << "counter " << name;
  }
  EXPECT_GT(first_bulk, 0U);
}

TEST(GmemTiming, CoreLoadsFromGlobalMemory) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.data 0x80010000
value:
    .word 123456
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x80010000
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 123456U);
}

namespace {

/// Core 0 launches a 64 B DMA copy-in and sleep-waits on it while every
/// other core hammers the 4 B/cycle channel with an endless scalar load
/// loop; returns the run result (EOC iff the transfer ever completed).
RunResult run_dma_vs_scalar_flood(u32 bulk_min_pct, u64 max_cycles) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  cfg.gmem_bytes_per_cycle = 4;
  cfg.gmem_arbiter.bulk_min_pct = bulk_min_pct;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, hammer
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x1000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 64
    sw t2, 0(t1)
    li t1, DMA_WAKE
    sw zero, 0(t1)        # wake core 0 on completion
    li t1, DMA_START
    sw zero, 0(t1)
    li t1, DMA_STATUS
wait:
    lw t2, 0(t1)
    beqz t2, done
    wfi
    j wait
done:
    li t0, EOC
    li a0, 1
    sw a0, 0(t0)
park:
    wfi
    j park
hammer:
    li t1, 0x80030000
hloop:
    lw t3, 0(t1)
    lw t4, 8(t1)
    lw t5, 16(t1)
    j hloop
)";
  return mp3d::testing::run_asm(cluster, src, max_cycles);
}

}  // namespace

TEST(GmemArbiter, EndToEndDmaProgressUnderScalarFlood) {
  // Under the legacy absolute-priority default the flooded channel starves
  // the DMA engine forever: the transfer never completes.
  const RunResult starved = run_dma_vs_scalar_flood(0, 30000);
  EXPECT_FALSE(starved.eoc);
  EXPECT_TRUE(starved.hit_max_cycles);
  EXPECT_GT(starved.counters.get("gmem.bulk_stall_cycles"), 0U);
  EXPECT_EQ(starved.counters.get("gmem.bulk_bytes"), 0U);

  // A 25 % bulk guarantee bounds the wait: 64 B at >= 1 B/cycle completes
  // in a few hundred cycles despite the same scalar flood.
  const RunResult fair = run_dma_vs_scalar_flood(25, 30000);
  EXPECT_TRUE(fair.eoc);
  EXPECT_EQ(fair.counters.get("gmem.bulk_bytes"), 64U);
  EXPECT_LT(fair.cycles, 2000U);
}

TEST(GmemTiming, BandwidthScalingSpeedsUpBulkLoads) {
  // A strided copy loop from gmem to SPM should speed up with bandwidth.
  auto run_with_bw = [](u32 bw) {
    ClusterConfig cfg = ClusterConfig::mini();
    cfg.perfect_icache = true;
    cfg.gmem_bytes_per_cycle = bw;
    Cluster cluster(cfg);
    std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    li t4, 16             # words per core
    mul t5, t0, t4
    li t1, 0x80010000
    slli t6, t5, 2
    add t1, t1, t6        # gmem src
    li t2, 0x4000
    add t2, t2, t6        # spm dst (interleaved)
    csrr t5, mcycle
copy:
    lw t3, 0(t1)
    sw t3, 0(t2)
    addi t1, t1, 4
    addi t2, t2, 4
    addi t4, t4, -1
    bnez t4, copy
    fence
    csrr t6, mcycle
    bnez t0, park
    sub a0, t6, t5
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
    const RunResult r = mp3d::testing::run_asm(cluster, src);
    EXPECT_TRUE(r.eoc);
    return r.exit_code;
  };
  const u32 slow = run_with_bw(4);
  const u32 fast = run_with_bw(64);
  EXPECT_LT(fast, slow);
  // 16 cores x 16 words x 4 B = 1024 B; at 4 B/cycle the bus alone needs
  // 256 cycles; core 0's measured span must reflect that order.
  EXPECT_GE(slow, 200U);
}

}  // namespace
}  // namespace mp3d::arch
