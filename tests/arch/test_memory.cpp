// SPDX-License-Identifier: Apache-2.0
// Memory-system behaviour: atomics, LR/SC, bank conflicts, host backdoor.
#include <gtest/gtest.h>

#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::run_asm;

TEST(Backdoor, SpmRoundTrip) {
  Cluster cluster(ClusterConfig::mini());
  const AddrMap& map = cluster.addr_map();
  for (u64 w = 0; w < 64; ++w) {
    cluster.write_word(map.interleaved_addr(w), static_cast<u32>(w * 3 + 1));
  }
  for (u64 w = 0; w < 64; ++w) {
    EXPECT_EQ(cluster.read_word(map.interleaved_addr(w)), w * 3 + 1);
  }
}

TEST(Backdoor, GmemRoundTrip) {
  Cluster cluster(ClusterConfig::mini());
  const u32 base = cluster.config().gmem_base + 0x1000;
  cluster.write_words(base, std::vector<u32>{1, 2, 3, 4});
  const auto v = cluster.read_words(base, 4);
  EXPECT_EQ(v, (std::vector<u32>{1, 2, 3, 4}));
}

TEST(Backdoor, RejectsUnmapped) {
  Cluster cluster(ClusterConfig::mini());
  EXPECT_THROW(cluster.read_word(0x70000000), std::invalid_argument);
  EXPECT_THROW(cluster.write_word(0x70000000, 1), std::invalid_argument);
  EXPECT_THROW(cluster.write_words(0x70000000, std::vector<u32>{1}), std::invalid_argument);
}

/// write_words(first, words) on one cluster and write_word per word on
/// another read back the same over the range and a margin around it.
void expect_bulk_matches_word_by_word(u32 first, u32 count) {
  Cluster bulk(ClusterConfig::mini());
  Cluster single(ClusterConfig::mini());
  std::vector<u32> words(count);
  for (u32 i = 0; i < count; ++i) {
    words[i] = 0x9E37'79B9U * (i + 1);
    single.write_word(first + 4 * i, words[i]);
  }
  bulk.write_words(first, words);
  constexpr u32 kMargin = 4;
  const u32 lo = first - 4 * kMargin;
  EXPECT_EQ(bulk.read_words(lo, count + 2 * kMargin),
            single.read_words(lo, count + 2 * kMargin));
  EXPECT_EQ(bulk.read_words(first, count), words);
}

TEST(Backdoor, WriteWordsAcrossAGmemPageBoundary) {
  const ClusterConfig cfg = ClusterConfig::mini();
  // Global memory is stored in 64 KiB pages counted from gmem_base.
  expect_bulk_matches_word_by_word(cfg.gmem_base + static_cast<u32>(KiB(64)) - 4 * 300, 700);
}

TEST(Backdoor, WriteWordsAcrossTheSpmRegionBoundary) {
  const ClusterConfig cfg = ClusterConfig::mini();
  const u32 boundary = static_cast<u32>(cfg.spm_base + cfg.seq_region_bytes());
  const AddrMap map(cfg);
  ASSERT_EQ(map.classify(boundary - 4), Region::kSpmSeq);
  ASSERT_EQ(map.classify(boundary), Region::kSpmInterleaved);
  expect_bulk_matches_word_by_word(boundary - 4 * 40, 100);
}

TEST(Backdoor, WriteWordsLeavingTheWindowFailsLikeWriteWord) {
  const ClusterConfig cfg = ClusterConfig::mini();
  Cluster cluster(cfg);
  const u32 spm_end = static_cast<u32>(cfg.spm_base + cfg.spm_capacity);
  const u32 gmem_end = static_cast<u32>(cfg.gmem_base + cfg.gmem_size);
  EXPECT_THROW(cluster.write_word(spm_end, 1), std::invalid_argument);
  EXPECT_THROW(cluster.write_word(gmem_end, 1), std::invalid_argument);
  const std::vector<u32> three = {1, 2, 3};
  EXPECT_THROW(cluster.write_words(spm_end - 8, three), std::invalid_argument);
  EXPECT_THROW(cluster.write_words(gmem_end - 8, three), std::invalid_argument);
  // The range is checked before anything is written.
  EXPECT_EQ(cluster.read_words(spm_end - 8, 2), (std::vector<u32>{0, 0}));
  EXPECT_EQ(cluster.read_words(gmem_end - 8, 2), (std::vector<u32>{0, 0}));
  // A range that ends exactly at the end of its region is fine.
  cluster.write_words(spm_end - 12, three);
  cluster.write_words(gmem_end - 12, three);
  EXPECT_EQ(cluster.read_words(spm_end - 12, 3), three);
  EXPECT_EQ(cluster.read_words(gmem_end - 12, 3), three);
}

class AtomicsTest : public ::testing::Test {
 protected:
  AtomicsTest() : cluster_(ClusterConfig::tiny()) {}
  Cluster cluster_;
};

TEST_F(AtomicsTest, AmoOpsSingleCore) {
  const std::string src = ctrl_prelude(cluster_.config()) + R"(
.equ CELL, 0x2000
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    li t2, 10
    sw t2, 0(t1)
    li t3, 3
    amoadd.w a1, t3, (t1)    # a1=10, cell=13
    li t3, 0xF
    amoand.w a2, t3, (t1)    # a2=13, cell=13&15=13
    li t3, 0x10
    amoor.w a3, t3, (t1)     # a3=13, cell=0x1D
    li t3, 100
    amomax.w a4, t3, (t1)    # a4=0x1D, cell=100
    li t3, 7
    amomin.w a5, t3, (t1)    # a5=100, cell=7
    li t3, 42
    amoswap.w a6, t3, (t1)   # a6=7, cell=42
    lw a7, 0(t1)             # 42
    add a0, a1, a2
    add a0, a0, a3
    add a0, a0, a4
    add a0, a0, a5
    add a0, a0, a6
    add a0, a0, a7
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster_, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 10U + 13U + 13U + 0x1DU + 100U + 7U + 42U);
}

TEST_F(AtomicsTest, AmoAddIsAtomicAcrossCores) {
  // All 4 cores increment the same cell 100 times.
  const std::string src = ctrl_prelude(cluster_.config()) + R"(
.equ CELL, 0x2000
.equ DONE, 0x2004
.text 0x80000000
_start:
    li t1, CELL
    li t2, 100
    li t3, 1
loop:
    amoadd.w zero, t3, (t1)
    addi t2, t2, -1
    bnez t2, loop
    li t4, DONE
    amoadd.w zero, t3, (t4)
    csrr t0, mhartid
    bnez t0, park
wait:
    lw t5, 0(t4)
    li t6, 4
    bne t5, t6, wait
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster_, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 400U);
}

TEST_F(AtomicsTest, LrScSuccessAndFailure) {
  const std::string src = ctrl_prelude(cluster_.config()) + R"(
.equ CELL, 0x2000
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    li t2, 5
    sw t2, 0(t1)
    lr.w a1, (t1)          # a1 = 5, reservation
    addi a1, a1, 1
    sc.w a2, a1, (t1)      # success: a2 = 0, cell = 6
    sc.w a3, a1, (t1)      # no reservation: a3 = 1
    lw a4, 0(t1)           # 6
    slli a3, a3, 4
    add a0, a2, a3         # 0x10
    add a0, a0, a4         # 0x16
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster_, src);
  EXPECT_EQ(r.exit_code, 0x16U);
}

TEST_F(AtomicsTest, ScFailsAfterInterveningStore) {
  // Core 0 takes a reservation, signals core 1 to write the cell, then
  // attempts sc.w: it must fail.
  const std::string src = ctrl_prelude(cluster_.config()) + R"(
.equ CELL, 0x2000
.equ FLAG, 0x2040
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, CELL
    li t2, FLAG
    bnez t0, other
    lr.w a1, (t1)          # reservation on CELL
    li t3, 1
    sw t3, 0(t2)           # release core 1
waitb:
    lw t4, 4(t2)           # wait for core 1's ack
    beqz t4, waitb
    li a1, 99
    sc.w a2, a1, (t1)      # must fail: a2 = 1
    lw a3, 0(t1)           # 55 (core 1's value)
    addi a3, a3, -55       # 0
    add a0, a2, a3         # 1
    li t0, EOC
    sw a0, 0(t0)
other:
    li t5, 1
    bne t0, t5, park       # only core 1 participates
waita:
    lw t4, 0(t2)
    beqz t4, waita
    li t6, 55
    sw t6, 0(t1)           # break core 0's reservation
    fence
    li t6, 1
    sw t6, 4(t2)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster_, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 1U);
}

TEST(BankConflicts, ConcurrentSameBankAccessesSerialize) {
  // All 16 cores of the mini cluster hammer the same interleaved word.
  Cluster cluster(ClusterConfig::mini());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.equ CELL, 0x8000
.equ DONE, 0x8004
.text 0x80000000
_start:
    li t1, CELL
    li t2, 64
    li t3, 1
loop:
    amoadd.w zero, t3, (t1)
    addi t2, t2, -1
    bnez t2, loop
    li t4, DONE
    amoadd.w zero, t3, (t4)
    csrr t0, mhartid
    bnez t0, park
wait:
    lw t5, 0(t4)
    li t6, 16
    bne t5, t6, wait
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 16U * 64U);
  // Conflicts must have occurred: 16 cores -> 1 bank.
  EXPECT_GT(r.counters.get("bank.conflicts"), 100U);
}

TEST(BankConflicts, SpreadAccessesDoNotConflict) {
  // Each core works in its own sequential (tile-local) slice.
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    slli t1, t0, 2        # core c starts on bank c (word-interleaved)
    li t2, 16
loop:
    sw t2, 0(t1)
    lw t3, 0(t1)
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, loop
    bnez t0, park
    li a0, 0
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  EXPECT_TRUE(r.eoc);
  // Different banks (stride 64 = bank step 16 words) -> near-zero conflicts.
  EXPECT_LT(r.counters.get("bank.conflicts"), 8U);
}

}  // namespace
}  // namespace mp3d::arch
