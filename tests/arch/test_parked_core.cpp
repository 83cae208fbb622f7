// SPDX-License-Identifier: Apache-2.0
// Directed edge cases of cores that stall on a memory response: a stalled
// core must account every waiting cycle exactly as if it had been stepped,
// even when its instruction-cache line is evicted under it or it is
// faulted mid-wait. The expected values were recorded from the simulator
// while it still stepped every stalled core every cycle.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "isa/assembler.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::run_asm;

/// The run totals a stalled core's accounting feeds.
struct CoreTotals {
  u64 cycles;
  u64 instret;
  u64 stall_raw;
  u64 stall_fetch;
  u64 stall_flush;
  u64 wfi_cycles;
  u64 icache_hits;
  u64 icache_misses;
};

void expect_totals(const RunResult& r, const CoreTotals& want) {
  EXPECT_EQ(r.cycles, want.cycles);
  EXPECT_EQ(r.counters.get("core.instret"), want.instret);
  EXPECT_EQ(r.counters.get("core.stall_raw"), want.stall_raw);
  EXPECT_EQ(r.counters.get("core.stall_fetch"), want.stall_fetch);
  EXPECT_EQ(r.counters.get("core.stall_flush"), want.stall_flush);
  EXPECT_EQ(r.counters.get("core.wfi_cycles"), want.wfi_cycles);
  EXPECT_EQ(r.counters.get("icache.hits"), want.icache_hits);
  EXPECT_EQ(r.counters.get("icache.misses"), want.icache_misses);
  // Nothing in these programs fills the LSU, hits a busy port or fences.
  EXPECT_EQ(r.counters.get("core.stall_lsu_full"), 0U);
  EXPECT_EQ(r.counters.get("core.stall_port_busy"), 0U);
  EXPECT_EQ(r.counters.get("core.stall_fence"), 0U);
}

// A two-line instruction cache shared by the tile's four cores. Core 0
// chases a chain of gmem loads, each used at once, from the line at 0x40.
// Cores 1-3 spin, then jump to 0x80 — the other tag of the same cache
// index — and sleep there. Their refill lands while core 0 waits on a
// load, so core 0's line is gone when that load returns: core 0 misses the
// cycle the refill lands, exactly as a core stepped every cycle would.
struct EvictionCase {
  u32 latency;
  u32 spin;
  CoreTotals want;
};

void PrintTo(const EvictionCase& c, std::ostream* os) {
  *os << "latency " << c.latency << ", spin " << c.spin;
}

class ParkedCoreEviction : public ::testing::TestWithParam<EvictionCase> {};

TEST_P(ParkedCoreEviction, RefillEvictingTheWaitingLineIsSeen) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.icache_size = 64;  // two 32-byte lines: index = bit 5 of the pc
  cfg.gmem_latency = GetParam().latency;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + ".equ SPIN, " +
                          std::to_string(GetParam().spin) + R"(
.equ LOADS, 4
.text 0x80000020
_start:
    csrr t0, mhartid
    li t4, SPIN
    beqz t0, core0
spin:
    addi t4, t4, -1
    bnez t4, spin
    j alias
.org 0x80000040
core0:
    li t2, data
    li t5, LOADS
chase:
    lw t3, 0(t2)
    add t6, t6, t3
    addi t5, t5, -1
    bnez t5, chase
    j done
.org 0x80000060
done:
    li t0, EOC
    sw t6, 0(t0)
    j alias
.org 0x80000080
alias:
    wfi
    j alias
.org 0x80001000
data:
    .word 1
)";
  const RunResult r = run_asm(cluster, src, 100'000);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 4U);
  expect_totals(r, GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(LatencyAndSpin, ParkedCoreEviction,
                         ::testing::Values(
                             EvictionCase{60, 5, {478, 72, 194, 620, 36, 990, 266, 5}},
                             EvictionCase{100, 10, {778, 102, 334, 1020, 66, 1590, 436, 5}},
                             EvictionCase{200, 50, {1638, 342, 794, 2020, 306, 3090, 1136, 5}}),
                         [](const auto& info) {
                           return "latency" + std::to_string(info.param.latency) + "_spin" +
                                  std::to_string(info.param.spin);
                         });

// Core 0 waits on a slow gmem load when the host faults it: from that
// cycle on it is halted and must not be charged another stall cycle, even
// though its load is still in flight. A fault ends a run, so the test
// steps the cluster itself until core 1 writes EOC.
TEST(ParkedCoreFault, FaultWhileWaitingStopsTheCharge) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  cfg.gmem_latency = 100;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    beqz t0, core0
    addi t0, t0, -1
    beqz t0, core1
    ecall
core0:
    li t2, data
    lw t3, 0(t2)
    addi t3, t3, 1
    ecall
core1:
    li t4, 150
spin:
    addi t4, t4, -1
    bnez t4, spin
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
.org 0x80001000
data:
    .word 1
)";
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  cluster.load_program(isa::assemble(src, options));
  for (int i = 0; i < 20; ++i) {
    cluster.step();
  }
  ASSERT_FALSE(cluster.core(0).lsu_idle()) << "core 0 must be waiting on its load";
  cluster.core(0).fault("injected fault");
  while (!cluster.eoc_signaled() && cluster.now() < 100'000) {
    cluster.step();
  }
  const RunResult r = cluster.end_run(cluster.eoc_signaled(), false, false);
  ASSERT_TRUE(r.eoc);
  EXPECT_TRUE(r.fault);
  EXPECT_EQ(cluster.core(0).state(), CoreState::kError);
  EXPECT_EQ(r.core_errors[0], "injected fault");
  expect_totals(r, {609, 324, 13, 0, 302, 0, 337, 0});
}

}  // namespace
}  // namespace mp3d::arch
