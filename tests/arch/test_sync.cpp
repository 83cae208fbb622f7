// SPDX-License-Identifier: Apache-2.0
// Synchronization primitives: wfi/wake-up tokens and full barriers.
#include <gtest/gtest.h>

#include "sim/driver.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::run_asm;

TEST(Sync, WakeOneWakesSleepingCore) {
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.equ FLAG, 0x2000
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, FLAG
    beqz t0, core0
    li t2, 1
    bne t0, t2, park
    wfi                    # core 1 sleeps until woken
    li t3, 1
    sw t3, 0(t1)           # then sets the flag
    j park
core0:
    li t4, 500
delay:
    addi t4, t4, -1
    bnez t4, delay
    li t5, WAKE_ONE
    li t6, 1
    sw t6, 0(t5)           # wake core 1
wait:
    lw t2, 0(t1)
    beqz t2, wait
    li a0, 1
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 1U);
  EXPECT_GT(r.counters.get("core.wfi_cycles"), 100U);
}

TEST(Sync, WakeTokenPreventsLostWakeup) {
  // The wake can arrive *before* the target executes wfi; the token must
  // be retained so the wfi falls through instead of sleeping forever.
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    li t2, 1
    beqz t0, core0
    bne t0, t2, park
    li t4, 800             # long delay: core 0's wake arrives first
delay1:
    addi t4, t4, -1
    bnez t4, delay1
    wfi                    # must consume the pending token
    li a0, 2
    li t0, EOC
    sw a0, 0(t0)
    j park
core0:
    li t5, WAKE_ONE
    sw t2, 0(t5)           # wake core 1 immediately
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 2U);
}

// Full sense-reversal barrier executed `iters` times by all cores. Core 0
// then reports the value of a per-phase accumulation that is only correct
// if every barrier actually separated the phases.
std::string barrier_program(const ClusterConfig& cfg, int iters) {
  return ctrl_prelude(cfg) + R"(
.equ COUNT0, 0x2000
.equ COUNT1, 0x2080
.equ SUM,    0x2100
.equ ITERS,  )" + std::to_string(iters) + R"(
.text 0x80000000
_start:
    csrr s0, mhartid          # core id
    li s1, NUM_CORES
    lw s1, 0(s1)              # total cores
    li s2, ITERS
    li s3, 0                  # iteration counter (selects barrier counter)
main_loop:
    # ---- phase work: add 1 to the shared sum --------------------------
    li t1, SUM
    li t2, 1
    amoadd.w zero, t2, (t1)
    # ---- barrier (sense-reversing pair of counters) --------------------
    andi t3, s3, 1
    li t4, COUNT0
    beqz t3, use0
    li t4, COUNT1
use0:
    fence                     # drain my stores before signaling arrival
    li t5, 1
    amoadd.w t6, t5, (t4)
    addi t6, t6, 1
    bne t6, s1, sleep         # not last -> sleep
    sw zero, 0(t4)            # last core resets the counter...
    li t5, WAKE_ALL
    sw t5, 0(t5)              # ...and wakes everyone else
    j barrier_done
sleep:
    wfi
barrier_done:
    addi s3, s3, 1
    blt s3, s2, main_loop
    # ---- after all iterations -----------------------------------------
    bnez s0, park
    li t1, SUM
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
}

TEST(Sync, BarrierAllCoresTinyCluster) {
  Cluster cluster(ClusterConfig::tiny());
  const int iters = 10;
  const RunResult r = run_asm(cluster, barrier_program(cluster.config(), iters));
  ASSERT_TRUE(r.eoc) << (r.deadlock ? "deadlock" : "timeout");
  EXPECT_EQ(r.exit_code, 4U * iters);
}

TEST(Sync, BarrierAllCoresMiniCluster) {
  Cluster cluster(ClusterConfig::mini());
  const int iters = 8;
  const RunResult r = run_asm(cluster, barrier_program(cluster.config(), iters));
  ASSERT_TRUE(r.eoc) << (r.deadlock ? "deadlock" : "timeout");
  EXPECT_EQ(r.exit_code, 16U * iters);
}

TEST(Sync, BarrierFullMemPoolCluster) {
  // 256 cores, the paper's configuration; a few iterations suffice.
  Cluster cluster(ClusterConfig::mempool(MiB(1)));
  const int iters = 3;
  const RunResult r =
      run_asm(cluster, barrier_program(cluster.config(), iters), 5'000'000);
  ASSERT_TRUE(r.eoc) << (r.deadlock ? "deadlock" : "timeout");
  EXPECT_EQ(r.exit_code, 256U * iters);
}

TEST(Sync, DeadlockIsDetected) {
  // A core that sleeps with nobody to wake it must trip the deadlock
  // detector rather than spinning the host forever.
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)";
  const RunResult r = run_asm(cluster, src, 500'000);
  EXPECT_TRUE(r.deadlock);
  EXPECT_FALSE(r.eoc);
}

TEST(Sync, LongRegisterOnlyLoopIsNotADeadlock) {
  // Core 0 spins through 30,000 iterations of a loop that touches no
  // memory (about 90,000 cycles, far past the watchdog window) while the
  // others sleep. Retired instructions are progress, so the run must end
  // at its EOC, not with a deadlock verdict.
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 30000
spin:
    addi t1, t1, -1
    bnez t1, spin
    li a0, 7
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src, 500'000);
  ASSERT_TRUE(r.eoc) << (r.deadlock ? "deadlock" : "timeout");
  EXPECT_FALSE(r.deadlock);
  EXPECT_EQ(r.exit_code, 7U);
  EXPECT_GT(r.cycles, 2 * sim::kDeadlockWindow);
}

}  // namespace
}  // namespace mp3d::arch
