// SPDX-License-Identifier: Apache-2.0
#include "kernels/runtime.hpp"

#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "kernels/kernel.hpp"

namespace mp3d::kernels {
namespace {

TEST(SpmAllocator, AllocatesAboveRuntimeArea) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  SpmAllocator alloc(cfg);
  const u32 first = alloc.alloc(64);
  EXPECT_GE(first, barrier_counter0_addr(cfg) + kRuntimeReservedBytes);
  const u32 second = alloc.alloc(4);
  EXPECT_GE(second, first + 64);
}

TEST(SpmAllocator, WordAlignsAndExhausts) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  SpmAllocator alloc(cfg);
  const u32 a = alloc.alloc(3);  // rounded to 4
  const u32 b = alloc.alloc(4);
  EXPECT_EQ(b - a, 4U);
  EXPECT_THROW(alloc.alloc(MiB(64)), std::invalid_argument);
}

TEST(GmemAllocator, ReservesCodeRegion) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  GmemAllocator alloc(cfg);
  EXPECT_GE(alloc.alloc(16), cfg.gmem_base + MiB(1));
}

TEST(RandomWords, WriteRandomWordsWritesTheDrawsInOrder) {
  // 2,500 words: runs of 1,024, 1,024 and 452 words, the second across a
  // 64 KiB global memory page boundary.
  arch::Cluster cluster(arch::ClusterConfig::mini());
  constexpr u32 kWords = 2500;
  const u32 base = cluster.config().gmem_base + static_cast<u32>(KiB(64)) - 4 * 1500;
  Prng written(42);
  write_random_words(cluster, base, written, kWords, -1000, 1000);
  Prng drawn(42);
  for (u32 i = 0; i < kWords; ++i) {
    ASSERT_EQ(cluster.read_word(base + 4 * i), random_word(drawn, -1000, 1000)) << i;
  }
  EXPECT_EQ(written.next_u64(), drawn.next_u64());  // no draw more or less
  EXPECT_EQ(cluster.read_word(base - 4), 0U);
  EXPECT_EQ(cluster.read_word(base + 4 * kWords), 0U);
}

TEST(Runtime, MarkerFragmentDependsOnlyOnItsId) {
  // A kernel's source, which keys isa::assemble's memo, must not change
  // from one build to the next.
  EXPECT_EQ(emit_marker("7", true), emit_marker("7", true));
  EXPECT_NE(emit_marker("7", true), emit_marker("8", true));
  EXPECT_EQ(emit_marker("7", false), "");
}

TEST(BarrierCounters, LiveInDistinctBanks) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
  const arch::AddrMap map(cfg);
  const auto t0 = map.spm_target(barrier_counter0_addr(cfg));
  const auto t1 = map.spm_target(barrier_counter1_addr(cfg));
  EXPECT_FALSE(t0.tile == t1.tile && t0.bank == t1.bank);
}

TEST(Runtime, Crt0RunsMainOnAllCoresAndReportsA0) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  arch::Cluster cluster(cfg);
  std::string src = runtime_prelude(cfg);
  src += ".text " + std::to_string(cfg.gmem_base) + "\n";
  src += runtime_crt0(cfg);
  src += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    call _barrier
    li a0, 123
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";
  src += runtime_barrier(cfg);
  isa::AsmOptions opt;
  opt.default_base = cfg.gmem_base;
  cluster.load_program(isa::assemble(src, opt));
  reset_runtime_state(cluster);
  const arch::RunResult r = cluster.run(200'000);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 123U);
}

TEST(Runtime, RepeatedBarriersStayCoherent) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  arch::Cluster cluster(cfg);
  std::string src = runtime_prelude(cfg);
  src += ".equ SUM, " + std::to_string(barrier_counter0_addr(cfg) + 128) + "\n";
  src += ".text " + std::to_string(cfg.gmem_base) + "\n";
  src += runtime_crt0(cfg);
  // 20 rounds: everyone adds 1, core 0 checks the running total each round.
  src += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    sw s0, 8(sp)
    sw s1, 4(sp)
    sw s2, 0(sp)
    csrr s0, mhartid
    li s1, 0                # round
    li s2, SUM
rt_loop:
    li t0, 1
    amoadd.w zero, t0, (s2)
    call _barrier
    bnez s0, rt_next
    lw t1, 0(s2)            # core 0 checks: (round+1)*NUM_CORES
    addi t2, s1, 1
    li t3, NUM_CORES
    mul t2, t2, t3
    beq t1, t2, rt_next
    li a0, 1                # mismatch
    j rt_done
rt_next:
    call _barrier           # keep the check race-free
    addi s1, s1, 1
    li t0, 20
    blt s1, t0, rt_loop
    li a0, 0
rt_done:
    lw s2, 0(sp)
    lw s1, 4(sp)
    lw s0, 8(sp)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";
  src += runtime_barrier(cfg);
  isa::AsmOptions opt;
  opt.default_base = cfg.gmem_base;
  cluster.load_program(isa::assemble(src, opt));
  reset_runtime_state(cluster);
  const arch::RunResult r = cluster.run(2'000'000);
  ASSERT_TRUE(r.eoc) << (r.deadlock ? "deadlock" : "timeout");
  EXPECT_EQ(r.exit_code, 0U);
}

}  // namespace
}  // namespace mp3d::kernels
