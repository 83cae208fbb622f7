// SPDX-License-Identifier: Apache-2.0
// Memory-system behaviour: atomics, LR/SC, sub-word access, functional
// writes over reservations, bank conflicts, host backdoor.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

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

// ---- one implementation of word ops for the SPM and global memory ---------

/// Results array of the word-op sequence, in the interleaved SPM of tiny().
constexpr u32 kKeptBase = 0x3000;
/// Cells the sequence works on: 13 words from its CELLS base.
constexpr u32 kCellWords = 13;

/// One assembly sequence of byte and half-word loads, sub-word merges, the
/// nine AMOs and LR/SC on cells from CELLS, run by core 0. Each response
/// word it keeps goes to the next word of kKeptBase; `expected` lists
/// what each must read and `kept_by` the line that answered it.
struct WordOpSequence {
  std::string body;
  std::vector<u32> expected;
  std::vector<std::string> kept_by;

  void op(const std::string& line) { body += "    " + line + "\n"; }
  /// Run `line`, which answers in a0, and keep a0.
  void keep(const std::string& line, u32 value) {
    op(line);
    op("sw a0, 0(s1)");
    op("addi s1, s1, 4");
    expected.push_back(value);
    kept_by.push_back(line);
  }
};

std::string hex(u32 value) {
  std::ostringstream oss;
  oss << "0x" << std::hex << value;
  return oss.str();
}

WordOpSequence word_op_sequence() {
  WordOpSequence seq;
  // Cell 0: one byte lane per sign, loaded at every legal lane.
  seq.op("li t1, 0x80FF7F01");
  seq.op("sw t1, 0(s0)");
  const u32 lb[] = {0x01, 0x7F, 0xFFFFFFFF, 0xFFFFFF80};
  const u32 lbu[] = {0x01, 0x7F, 0xFF, 0x80};
  for (u32 lane = 0; lane < 4; ++lane) {
    seq.keep("lb a0, " + std::to_string(lane) + "(s0)", lb[lane]);
    seq.keep("lbu a0, " + std::to_string(lane) + "(s0)", lbu[lane]);
  }
  seq.keep("lh a0, 0(s0)", 0x7F01);
  seq.keep("lh a0, 2(s0)", 0xFFFF80FF);
  seq.keep("lhu a0, 0(s0)", 0x7F01);
  seq.keep("lhu a0, 2(s0)", 0x80FF);
  seq.keep("lw a0, 0(s0)", 0x80FF7F01);
  // Cell 1: byte and half-word merges; only the low bits of rs2 land.
  seq.op("li t1, 0x11223344");
  seq.op("sw t1, 4(s0)");
  seq.op("li t2, 0xABCDEFA5");
  const u32 after_sb[] = {0x112233A5, 0x1122A5A5, 0x11A5A5A5, 0xA5A5A5A5};
  for (u32 lane = 0; lane < 4; ++lane) {
    seq.op("sb t2, " + std::to_string(4 + lane) + "(s0)");
    seq.keep("lw a0, 4(s0)", after_sb[lane]);
  }
  seq.op("li t2, 0x1234BEEF");
  seq.op("sh t2, 4(s0)");
  seq.keep("lw a0, 4(s0)", 0xA5A5BEEF);
  seq.op("sh t2, 6(s0)");
  seq.keep("lw a0, 4(s0)", 0xBEEFBEEF);
  // Cells 2-10: one AMO each; it answers the old word. The min/max
  // operands split signed from unsigned order.
  struct Amo {
    const char* op;
    u32 old;
    u32 operand;
    u32 result;
  };
  const Amo amos[] = {
      {"amoswap.w", 0x0F0F0F0F, 0x12345678, 0x12345678},
      {"amoadd.w", 0xFFFFFFFF, 2, 1},
      {"amoxor.w", 0xFF00FF00, 0x0FF00FF0, 0xF0F0F0F0},
      {"amoand.w", 0xFF00FF00, 0x0FF00FF0, 0x0F000F00},
      {"amoor.w", 0xFF00FF00, 0x0FF00FF0, 0xFFF0FFF0},
      {"amomin.w", 0x80000000, 1, 0x80000000},
      {"amominu.w", 0x80000000, 1, 1},
      {"amomax.w", 0x80000000, 1, 1},
      {"amomaxu.w", 0x80000000, 1, 0x80000000},
  };
  u32 offset = 8;
  for (const Amo& amo : amos) {
    const std::string cell = std::to_string(offset) + "(s0)";
    seq.op("li t1, " + hex(amo.old));
    seq.op("sw t1, " + cell);
    seq.op("addi t3, s0, " + std::to_string(offset));
    seq.op("li t2, " + hex(amo.operand));
    seq.keep(std::string(amo.op) + " a0, t2, (t3)", amo.old);
    seq.keep("lw a0, " + cell, amo.result);
    offset += 4;
  }
  // Cells 11 (A) and 12 (B): a core holds one reservation per memory.
  seq.op("li t1, 7");
  seq.op("sw t1, 44(s0)");
  seq.op("li t1, 8");
  seq.op("sw t1, 48(s0)");
  seq.op("addi t3, s0, 44");
  seq.op("addi t4, s0, 48");
  seq.op("li t2, 100");
  seq.keep("lr.w a0, (t3)", 7);
  seq.keep("sc.w a0, t2, (t3)", 0);  // A = 100
  // lr.w A; lr.w B; sc.w A: the second lr.w moved the reservation to B.
  seq.keep("lr.w a0, (t3)", 100);
  seq.keep("lr.w a0, (t4)", 8);
  seq.op("li t2, 101");
  seq.keep("sc.w a0, t2, (t3)", 1);
  // lr.w A; sc.w B; sc.w A: the failed sc.w B dropped the reservation.
  seq.keep("lr.w a0, (t3)", 100);
  seq.op("li t2, 102");
  seq.keep("sc.w a0, t2, (t4)", 1);
  seq.keep("sc.w a0, t2, (t3)", 1);
  // The reserving core's own store keeps its reservation.
  seq.keep("lr.w a0, (t3)", 100);
  seq.op("li t2, 103");
  seq.op("sw t2, 44(s0)");
  seq.op("li t2, 104");
  seq.keep("sc.w a0, t2, (t3)", 0);
  seq.keep("lw a0, 44(s0)", 104);
  seq.keep("lw a0, 48(s0)", 8);
  return seq;
}

struct WordOpRun {
  std::vector<u32> kept;
  std::vector<u32> cells;
};

WordOpRun run_word_ops(const WordOpSequence& seq, u32 cells) {
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + ".equ CELLS, " + hex(cells) +
                          "\n.equ KEPT, " + hex(kKeptBase) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li s0, CELLS
    li s1, KEPT
)" + seq.body + R"(
    fence
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  EXPECT_TRUE(r.eoc) << "cells at " << hex(cells);
  return {cluster.read_words(kKeptBase, seq.expected.size()),
          cluster.read_words(cells, kCellWords)};
}

TEST(WordOps, OneSequenceReadsTheSameOnTheSpmAndGlobalMemory) {
  const WordOpSequence seq = word_op_sequence();
  const WordOpRun spm = run_word_ops(seq, 0x2000);  // interleaved SPM
  const WordOpRun gmem = run_word_ops(seq, ClusterConfig::tiny().gmem_base + 0x100000);
  for (std::size_t i = 0; i < seq.expected.size(); ++i) {
    SCOPED_TRACE("kept word " + std::to_string(i) + ": " + seq.kept_by[i]);
    EXPECT_EQ(spm.kept[i], seq.expected[i]) << "SPM";
    EXPECT_EQ(gmem.kept[i], seq.expected[i]) << "gmem";
  }
  EXPECT_EQ(spm.cells, gmem.cells);
}

// ---- functional writes drop the reservations on what they write ------------

TEST(FunctionalWrites, DmaCopyOntoAReservedSpmWordFailsTheSc) {
  // Core 0 reserves an SPM word, DMA-copies a gmem word (77) onto it,
  // waits for the DMA, then tries sc.w of 5: the copy broke the
  // reservation, so the sc.w fails and the DMA's word stays.
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.equ CELL, 0x2000
.data 0x80020000
    .word 77
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    lr.w a1, (t1)
    li t2, DMA_SRC
    li t3, 0x80020000
    sw t3, 0(t2)
    li t2, DMA_DST
    sw t1, 0(t2)
    li t2, DMA_LEN
    li t3, 4
    sw t3, 0(t2)
    li t2, DMA_ROWS
    li t3, 1
    sw t3, 0(t2)
    li t2, DMA_START
    sw zero, 0(t2)
    li t2, DMA_STATUS
wait:
    lw t3, 0(t2)
    bnez t3, wait
    li t3, 5
    sc.w a0, t3, (t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = run_asm(cluster, src);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 1U);
  EXPECT_EQ(cluster.read_word(0x2000), 77U);
}

/// Core 0 reserves `cell`, then spins on an SPM flag before its sc.w of 5.
/// The host steps the cluster until the core spins, calls `write` on the
/// cell, sets the flag and runs to the end. Returns the sc.w's answer.
u32 sc_after_host_write(u32 cell, const std::function<void(Cluster&, u32)>& write) {
  constexpr u32 kFlag = 0x2040;   // set by the host: go on to the sc.w
  constexpr u32 kReady = 0x2044;  // set by core 0 once it holds the reservation
  Cluster cluster(ClusterConfig::tiny());
  const std::string src = ctrl_prelude(cluster.config()) + ".equ CELL, " + hex(cell) +
                          "\n.equ FLAG, " + hex(kFlag) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    li t2, FLAG
    lr.w a1, (t1)
    addi t3, a1, 1       # waits for the lr.w's answer
    sw t3, 4(t2)
spin:
    lw t4, 0(t2)
    beqz t4, spin
    li t3, 5
    sc.w a0, t3, (t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  isa::AsmOptions options;
  options.default_base = cluster.config().gmem_base;
  cluster.load_program(isa::assemble(src, options));
  cluster.write_word(cell, 0);
  for (int i = 0; i < 100'000 && cluster.read_word(kReady) == 0; ++i) {
    cluster.step();
  }
  EXPECT_EQ(cluster.read_word(kReady), 1U) << "core 0 never reached its spin loop";
  write(cluster, cell);
  cluster.write_word(kFlag, 1);
  const RunResult r = cluster.run(1'000'000);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(cluster.read_word(cell), 77U);
  return r.exit_code;
}

TEST(FunctionalWrites, HostWriteWordOntoAReservedWordFailsTheSc) {
  const auto write = [](Cluster& cluster, u32 cell) { cluster.write_word(cell, 77); };
  EXPECT_EQ(sc_after_host_write(0x2000, write), 1U);
  EXPECT_EQ(sc_after_host_write(ClusterConfig::tiny().gmem_base + 0x100000, write), 1U);
}

TEST(FunctionalWrites, HostWriteWordsOntoAReservedWordFailsTheSc) {
  const auto write = [](Cluster& cluster, u32 cell) {
    cluster.write_words(cell - 4, std::vector<u32>{1, 77, 2});
  };
  EXPECT_EQ(sc_after_host_write(0x2000, write), 1U);
  EXPECT_EQ(sc_after_host_write(ClusterConfig::tiny().gmem_base + 0x100000, write), 1U);
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
