// SPDX-License-Identifier: Apache-2.0
// Per-group DMA engines: deterministic transfer timing, 1D and strided 2D
// placement, arbitration against scalar traffic, the ctrl-register
// programming model, and the end-to-end win of the double-buffered DMA
// matmul over the core-driven variant.
#include <gtest/gtest.h>

#include <unordered_map>

#include "arch/dma.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;

/// SPM stand-in for engine-level unit tests, one map entry per word address.
class FakeSpm : public DmaSpmPort {
 public:
  void dma_read_spm(u32 addr, std::span<u32> words) override {
    for (u32& word : words) {
      word = words_[addr];
      addr += 4;
    }
  }
  void dma_write_spm(u32 addr, std::span<const u32> words) override {
    for (const u32 word : words) {
      words_[addr] = word;
      addr += 4;
    }
  }
  void dma_wake_core(u32 core) override { wakes_.push_back(core); }
  std::unordered_map<u32, u32> words_;
  std::vector<u32> wakes_;  ///< waker ids in completion order
};

/// Steps gmem + subsystem until idle; returns the cycle the last
/// descriptor completed (first cycle `pending` reads zero).
sim::Cycle run_until_idle(DmaSubsystem& dma, GlobalMemory& gmem, FakeSpm& spm,
                          sim::Cycle limit = 10000) {
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  sim::Cycle cycle = 0;
  while (cycle < limit) {
    ++cycle;
    responses.clear();
    refills.clear();
    gmem.step(cycle, responses, refills);
    dma.step(cycle, gmem, spm);
    if (dma.idle()) {
      return cycle;
    }
  }
  return limit;
}

TEST(DmaEngineUnit, Deterministic1DCompletionMini) {
  // mini: 16 B/cycle channel, latency 4. 256 B at 16 B/cycle = 16 grant
  // cycles; completion observed once the 4-cycle latency window passes.
  const ClusterConfig cfg = ClusterConfig::mini();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  for (u32 i = 0; i < 64; ++i) {
    gmem.write_word(cfg.gmem_base + 4 * i, 0x1000 + i);
  }
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 256;
  d.rows = 1;
  d.to_spm = true;
  ASSERT_TRUE(dma.can_accept(0));
  dma.push(0, d);
  EXPECT_EQ(dma.pending(0), 1U);
  const sim::Cycle done = run_until_idle(dma, gmem, spm);
  EXPECT_EQ(done, 256 / cfg.gmem_bytes_per_cycle + cfg.gmem_latency);
  for (u32 i = 0; i < 64; ++i) {
    EXPECT_EQ(spm.words_[0x2000 + 4 * i], 0x1000 + i);
  }
}

TEST(DmaEngineUnit, Deterministic1DCompletionTinyNarrowPort) {
  // tiny with an 8 B/cycle channel but a 4 B/cycle engine port: the port is
  // the bottleneck, so 64 B takes 16 grant cycles + latency.
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.gmem_bytes_per_cycle = 8;
  cfg.dma.bytes_per_cycle = 4;
  cfg.validate();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 64;
  d.rows = 1;
  d.to_spm = true;
  dma.push(0, d);
  const sim::Cycle done = run_until_idle(dma, gmem, spm);
  EXPECT_EQ(done, 64 / cfg.dma.bytes_per_cycle + cfg.gmem_latency);
}

TEST(DmaEngineUnit, Strided2DPlacementAndTiming) {
  // 4 rows x 64 B out of a 256 B-pitch matrix: same 256 total bytes as the
  // 1D case, so the completion cycle is identical; the source words come
  // from strided row starts.
  const ClusterConfig cfg = ClusterConfig::mini();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  for (u32 row = 0; row < 4; ++row) {
    for (u32 i = 0; i < 16; ++i) {
      gmem.write_word(cfg.gmem_base + row * 256 + 4 * i, (row << 8) | i);
    }
  }
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x3000;
  d.bytes_per_row = 64;
  d.rows = 4;
  d.gmem_stride = 256;
  d.to_spm = true;
  dma.push(0, d);
  const sim::Cycle done = run_until_idle(dma, gmem, spm);
  EXPECT_EQ(done, 256 / cfg.gmem_bytes_per_cycle + cfg.gmem_latency);
  // SPM side is contiguous: word (row*16 + i) holds row/col tag.
  for (u32 row = 0; row < 4; ++row) {
    for (u32 i = 0; i < 16; ++i) {
      EXPECT_EQ(spm.words_[0x3000 + (row * 16 + i) * 4], (row << 8) | i);
    }
  }
}

TEST(DmaEngineUnit, Strided2DStoreToGmem) {
  const ClusterConfig cfg = ClusterConfig::tiny();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  for (u32 i = 0; i < 32; ++i) {
    spm.words_[0x2000 + 4 * i] = 0xAB00 + i;
  }
  DmaDescriptor d;
  d.src = 0x2000;
  d.dst = cfg.gmem_base + 0x100;
  d.bytes_per_row = 32;
  d.rows = 4;
  d.gmem_stride = 128;
  d.to_spm = false;
  dma.push(0, d);
  run_until_idle(dma, gmem, spm);
  for (u32 row = 0; row < 4; ++row) {
    for (u32 i = 0; i < 8; ++i) {
      EXPECT_EQ(gmem.read_word(cfg.gmem_base + 0x100 + row * 128 + 4 * i),
                0xAB00 + row * 8 + i);
    }
  }
}

TEST(DmaEngineUnit, ScalarTrafficWinsTheByteBudget) {
  // An 8 B/cycle channel with 16 B of queued scalar traffic: the FIFO
  // drains first (2 cycles), delaying the 64 B DMA by exactly 2 cycles.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.gmem_bytes_per_cycle = 8;
  cfg.validate();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  for (int i = 0; i < 4; ++i) {
    MemRequest req;
    req.addr = cfg.gmem_base + 4 * i;
    req.op = isa::Op::kLw;
    gmem.enqueue(req, 0);
  }
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 64;
  d.rows = 1;
  d.to_spm = true;
  dma.push(0, d);
  const sim::Cycle done = run_until_idle(dma, gmem, spm);
  EXPECT_EQ(done, 2 + 64 / cfg.gmem_bytes_per_cycle + cfg.gmem_latency);
}

TEST(DmaEngineUnit, QueueDepthBoundsAcceptance) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.dma.max_outstanding = 2;
  cfg.validate();
  DmaSubsystem dma(cfg);
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 64;
  d.rows = 1;
  d.to_spm = true;
  ASSERT_TRUE(dma.can_accept(0));
  dma.push(0, d);
  ASSERT_TRUE(dma.can_accept(0));
  dma.push(0, d);
  EXPECT_FALSE(dma.can_accept(0));
  EXPECT_EQ(dma.pending(0), 2U);
}

// ---------------------------------------------------------------- ctrl path

TEST(DmaCtrl, CopyInThroughRegisters) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.data 0x80020000
input:
    .word 0x11111111
    .word 0x22222222
    .word 0x33333333
    .word 0x44444444
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 16
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    li t1, DMA_STATUS
wait:
    lw t2, 0(t1)
    bnez t2, wait
    li t1, 0x200c
    lw a0, 0(t1)          # last copied word
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 0x44444444U);
  EXPECT_EQ(cluster.read_word(0x2000), 0x11111111U);
  EXPECT_EQ(r.counters.get("dma.bytes"), 16U);
  EXPECT_EQ(r.counters.get("dma.descriptors"), 1U);
}

TEST(DmaCtrl, Strided2DCopyOutThroughRegisters) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  // Core 0 seeds 8 SPM words, then DMAs them out as 2 rows x 16 B with a
  // 64 B gmem pitch.
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x2000
    li t2, 0x700
    li t3, 8
fill:
    sw t2, 0(t1)
    addi t1, t1, 4
    addi t2, t2, 1
    addi t3, t3, -1
    bnez t3, fill
    fence
    li t1, DMA_SRC
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x80030000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 16
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 2
    sw t2, 0(t1)
    li t1, DMA_STRIDE
    li t2, 64
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    li t1, DMA_STATUS
wait:
    lw t2, 0(t1)
    bnez t2, wait
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.read_word(0x80030000 + 4 * i), 0x700 + i);
    EXPECT_EQ(cluster.read_word(0x80030040 + 4 * i), 0x704 + i);
  }
}

TEST(DmaCtrl, InvalidDescriptorFaultsTheCore) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  // Both sides in gmem: not a gmem<->SPM transfer.
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x80030000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 16
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src, 100000);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.core_errors[0].empty());
  EXPECT_NE(r.core_errors[0].find("DMA"), std::string::npos);
}

TEST(DmaCtrl, StatusWriteAndStartReadFault) {
  // A store to kDmaStatus is almost always a mistyped kDmaStart; both
  // wrong-direction accesses fault instead of silently no-oping.
  for (const bool write_status : {true, false}) {
    ClusterConfig cfg = ClusterConfig::tiny();
    cfg.perfect_icache = true;
    Cluster cluster(cfg);
    const std::string op = write_status ? "    li t1, DMA_STATUS\n    sw zero, 0(t1)\n"
                                        : "    li t1, DMA_START\n    lw t2, 0(t1)\n";
    const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
)" + op + R"(    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
    const RunResult r = mp3d::testing::run_asm(cluster, src, 100000);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.core_errors[0].find("DMA"), std::string::npos);
  }
}

TEST(DmaCtrl, StagingRegistersReadBack) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_LEN
    li t2, 0x1230
    sw t2, 0(t1)
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 0x1230U);
}

TEST(DmaCtrl, BlockedStartHoldsOnlyTheIssuingCore) {
  // Depth-1 engine queue on a slow channel: core 0's burst of start writes
  // back-pressures in the ctrl frontend while core 1 keeps using markers
  // and putchar. The hold machinery must serve core 1 past the blocked
  // entries, preserve core 0's program order, and lose no descriptor.
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  cfg.gmem_bytes_per_cycle = 4;  // descriptors drain slowly
  cfg.dma.max_outstanding = 1;   // second start blocks immediately
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, 1
    beq t0, t1, talker
    bnez t0, park
    # core 0: fire 4 x 256 B descriptors into a depth-1 queue
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 256
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t3, 4
    li t1, DMA_START
fire:
    sw zero, 0(t1)
    addi t3, t3, -1
    bnez t3, fire
    li t1, DMA_STATUS
drain:
    lw t2, 0(t1)
    bnez t2, drain
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
talker:
    li t1, MARKER
    li t2, PUTCHAR
    li t3, 20
chat:
    sw t3, 0(t1)
    li t4, 46               # '.'
    sw t4, 0(t2)
    addi t3, t3, -1
    bnez t3, chat
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  // Core 1's ctrl traffic all went through despite core 0's blocked starts.
  EXPECT_EQ(r.markers.size(), 20U);
  EXPECT_EQ(r.console.size(), 20U);
  // The back-pressure path actually triggered, and all four descriptors ran.
  EXPECT_GT(r.counters.get("dma.queue_full_stall_cycles"), 0U);
  EXPECT_EQ(r.counters.get("dma.descriptors"), 4U);
  EXPECT_EQ(r.counters.get("dma.bytes"), 4U * 256U);
}

// ------------------------------------------------------- wake on completion

TEST(DmaWake, EngineReportsWakerOnCompletion) {
  const ClusterConfig cfg = ClusterConfig::mini();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 256;
  d.rows = 1;
  d.to_spm = true;
  d.waker = 3;
  dma.push(0, d);
  // No wake before the completion-latency window passes.
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  for (sim::Cycle cycle = 1; cycle <= 256 / cfg.gmem_bytes_per_cycle; ++cycle) {
    gmem.step(cycle, responses, refills);
    dma.step(cycle, gmem, spm);
  }
  EXPECT_TRUE(spm.wakes_.empty());
  const sim::Cycle done = run_until_idle(dma, gmem, spm);
  EXPECT_EQ(done, 256 / cfg.gmem_bytes_per_cycle + cfg.gmem_latency);
  ASSERT_EQ(spm.wakes_.size(), 1U);
  EXPECT_EQ(spm.wakes_[0], 3U);
}

TEST(DmaWake, NoWakerDescriptorWakesNobody) {
  const ClusterConfig cfg = ClusterConfig::tiny();
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 64;
  d.rows = 1;
  d.to_spm = true;
  dma.push(0, d);
  run_until_idle(dma, gmem, spm);
  EXPECT_TRUE(spm.wakes_.empty());
}

TEST(DmaWake, SleepingCoreWokenExactlyOncePerDescriptor) {
  // Core 0 launches two descriptors that wake core 1; core 1 sleeps twice
  // and then reports. Exactly two wakes must be delivered — one per
  // completion — or core 1 would hang (too few) or leak a token (too many).
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, 1
    beq t0, t1, waiter
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 256
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_WAKE
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    sw zero, 0(t1)
park:
    wfi
    j park
waiter:
    wfi                     # first completion
    wfi                     # second completion
    li t1, MARKER
    li t2, 7
    sw t2, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.markers.size(), 1U);
  EXPECT_EQ(r.counters.get("dma.wakes"), 2U);
  EXPECT_EQ(r.counters.get("dma.wakes_suppressed"), 0U);
  // A completion cannot beat the off-chip bandwidth: two 256 B descriptors
  // on the tiny 16 B/cycle channel need at least 32 grant cycles.
  ASSERT_TRUE(r.marker_cycle(7).has_value());
  EXPECT_GE(*r.marker_cycle(7), 2 * 256 / cfg.gmem_bytes_per_cycle);
}

TEST(DmaWake, WaitSleepsWithoutCtrlTraffic) {
  // The event-driven wait: one status read arms the wake, the core sleeps
  // through the whole transfer, one re-read confirms the drain. The old
  // implementation polled kDmaStatus every few cycles, burning a ctrl slot
  // (and a gmem-arbiter visit for the issuing loop) per iteration.
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  cfg.gmem_bytes_per_cycle = 4;  // 1024 B -> at least 256 busy cycles
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 1024
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_WAKE
    sw zero, 0(t1)          # wake core 0 (self)
    li t1, DMA_START
    sw zero, 0(t1)
    li t1, DMA_STATUS
wait_loop:
    lw t2, 0(t1)            # arms the completion wake when nonzero
    beqz t2, done
    wfi
    j wait_loop
done:
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  // Exactly two status reads: the arming read and the post-wake re-read —
  // zero ctrl reads between sleep and wake.
  EXPECT_EQ(r.counters.get("dma.status_reads"), 2U);
  EXPECT_EQ(r.counters.get("dma.wakes"), 1U);
  // The waiter really slept through the transfer instead of spinning.
  EXPECT_GE(r.counters.get("core.wfi_cycles"), 1024U / cfg.gmem_bytes_per_cycle / 2);
}

TEST(DmaWake, DeterministicCompletionWakeCycle) {
  // Back-to-back runs of a completion-wake cycle on one cluster are
  // cycle-identical (also exercises the load_program counter reset).
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 512
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_WAKE
    sw zero, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    li t1, DMA_STATUS
wait_loop:
    lw t2, 0(t1)
    beqz t2, done
    wfi
    j wait_loop
done:
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult first = mp3d::testing::run_asm(cluster, src);
  const RunResult second = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(first.counters.get("dma.wakes"), 1U);
  EXPECT_EQ(second.counters.get("dma.wakes"), 1U);
}

TEST(DmaWake, OutOfRangeWakerFaults) {
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 16
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_WAKE
    li t2, 57               # only 4 cores exist
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src, 100000);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.core_errors[0].find("waker"), std::string::npos);
}

// ------------------------------------------------------------- end to end

TEST(DmaMatmul, DoubleBufferedBeatsCoreDriven) {
  // The acceptance gate: at >= 16 B/cycle the double-buffered DMA matmul
  // must finish faster (same traffic, so strictly higher effective
  // bandwidth utilization) than the core-driven kernel.
  for (const u32 bw : {16U, 32U}) {
    auto run = [&](bool use_dma) {
      ClusterConfig cfg = ClusterConfig::mini();
      cfg.perfect_icache = true;
      cfg.gmem_bytes_per_cycle = bw;
      Cluster cluster(cfg);
      kernels::MatmulParams p;
      p.m = 64;
      p.t = 16;
      const kernels::Kernel k =
          use_dma ? kernels::build_matmul_dma(cfg, p) : kernels::build_matmul(cfg, p);
      return kernels::run_kernel(cluster, k, 10'000'000);
    };
    const RunResult core_driven = run(false);
    const RunResult dma = run(true);
    EXPECT_LT(dma.cycles, core_driven.cycles) << "bw=" << bw;
    // Same matrices, same traffic: utilization ratio == inverse cycle ratio.
    EXPECT_EQ(core_driven.counters.get("gmem.bytes"), dma.counters.get("gmem.bytes"))
        << "bw=" << bw;
    EXPECT_GT(dma.counters.get("dma.bytes"), 0U);
  }
}

TEST(DmaMatmul, DoubleBufferedVerifiesOnMini) {
  ClusterConfig cfg = ClusterConfig::mini();
  Cluster cluster(cfg);
  kernels::MatmulParams p;
  p.m = 32;
  p.t = 16;
  // run_kernel throws if the C matrix mismatches the host reference.
  const RunResult r =
      kernels::run_kernel(cluster, kernels::build_matmul_dma(cfg, p), 10'000'000, true);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.counters.get("dma.descriptors"),
            // per output tile: 2 loads per chunk (2 chunks) + 1 store
            static_cast<u64>(2 * 2 + 1) * 4);
}

TEST(DmaMatmul, SpmdGroupParallelIssueOnFourGroups) {
  // On a 4-group cluster every group's leader stages its own row slice of
  // each tile through its own engines: 4x the descriptors of the mini run,
  // with the result still verifying against the host reference.
  ClusterConfig cfg;
  cfg.num_groups = 4;
  cfg.tiles_per_group = 1;
  cfg.cores_per_tile = 4;
  cfg.banks_per_tile = 16;
  cfg.spm_capacity = KiB(64);
  cfg.seq_bytes_per_tile = KiB(4);
  cfg.gmem_size = MiB(16);
  cfg.validate();
  Cluster cluster(cfg);
  kernels::MatmulParams p;
  p.m = 32;
  p.t = 16;
  const RunResult r =
      kernels::run_kernel(cluster, kernels::build_matmul_dma(cfg, p), 10'000'000, true);
  EXPECT_TRUE(r.ok());
  // Per output tile and leader: 2 slice loads per chunk (2 chunks) + 1
  // store slice; 4 leaders, 4 output tiles.
  EXPECT_EQ(r.counters.get("dma.descriptors"), static_cast<u64>(2 * 2 + 1) * 4 * 4);
  // Every sleeping leader was woken by its completions, never polled awake.
  EXPECT_GT(r.counters.get("dma.wakes"), 0U);
}

// --------------------------------------------- descriptor-granular waiting

TEST(DmaRetire, TrackerWatermarkAdvancesInOrderOnly) {
  DmaRetireTracker tracker;
  EXPECT_EQ(tracker.next_ticket(), 1U);
  EXPECT_EQ(tracker.next_ticket(), 2U);
  EXPECT_EQ(tracker.next_ticket(), 3U);
  EXPECT_EQ(tracker.watermark(), 0U);
  tracker.note_retired(2);  // out of order: parked until 1 retires
  EXPECT_EQ(tracker.watermark(), 0U);
  tracker.note_retired(1);
  EXPECT_EQ(tracker.watermark(), 2U);  // the gap closed, both count
  tracker.note_retired(3);
  EXPECT_EQ(tracker.watermark(), 3U);
}

TEST(DmaRetire, WatermarkHoldsBackEarlyRetirementAcrossEngines) {
  // Two engines: a large descriptor (ticket 1) on engine 0 and a small one
  // (ticket 2) on engine 1. The small one retires first, but the in-order
  // watermark must stay 0 until the large one is done — then jump to 2.
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.dma.engines_per_group = 2;
  GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                    cfg.gmem_latency);
  DmaSubsystem dma(cfg);
  FakeSpm spm;
  DmaDescriptor large;
  large.src = cfg.gmem_base;
  large.dst = 0x1000;
  large.bytes_per_row = 4096;
  dma.push(0, large);
  DmaDescriptor small = large;
  small.dst = 0x3000;
  small.bytes_per_row = 64;
  dma.push(0, small);
  EXPECT_EQ(dma.issued(0), 2U);

  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  sim::Cycle cycle = 0;
  bool saw_early_retirement = false;
  while (!dma.idle() && cycle < 10000) {
    ++cycle;
    responses.clear();
    refills.clear();
    gmem.step(cycle, responses, refills);
    dma.step(cycle, gmem, spm);
    if (dma.pending(0) == 1) {
      // Only the large descriptor is still in flight: the small one has
      // retired, yet the watermark must not have moved.
      saw_early_retirement = true;
      EXPECT_EQ(dma.retired(0), 0U);
    }
  }
  EXPECT_TRUE(saw_early_retirement);
  EXPECT_EQ(dma.retired(0), 2U);
}

TEST(DmaRetire, WaitOnTicketReturnsWhileLaterDescriptorStillRuns) {
  // Core 0 launches a small descriptor (ticket 1) and a large one (ticket
  // 2) on two engines, then waits for ticket 1 alone with the staged
  // kDmaWaitId / kDmaRetired protocol. The wait must return while the
  // large transfer is still pending (marker 7), and a full drain must
  // still be observable afterwards (marker 8) — the overlap window the
  // staged kernels use to hide their write-backs.
  ClusterConfig cfg = ClusterConfig::tiny();
  cfg.perfect_icache = true;
  cfg.dma.engines_per_group = 2;
  cfg.gmem_bytes_per_cycle = 8;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, DMA_SRC
    li t2, 0x80020000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x2000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 64
    sw t2, 0(t1)
    li t1, DMA_ROWS
    li t2, 1
    sw t2, 0(t1)
    li t1, DMA_WAKE
    sw zero, 0(t1)          # wake core 0 (self)
    li t1, DMA_START
    sw zero, 0(t1)          # ticket 1: 64 B
    li t1, DMA_LEN
    li t2, 4096
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x3000
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)          # ticket 2: 4 KiB
    li t1, DMA_TICKET
    lw t3, 0(t1)            # t3 = 2 (latest ticket)
    li t1, DMA_WAITID
    li t4, 1
    sw t4, 0(t1)            # wait target: ticket 1
    li t1, DMA_RETIRED
wid_loop:
    lw t2, 0(t1)            # arms the wake iff watermark < 1
    bgeu t2, t4, wid_done
    wfi
    j wid_loop
wid_done:
    li t1, DMA_STATUS
    lw t2, 0(t1)
    beqz t2, drained        # large transfer already done? (must not be)
    li t1, MARKER
    li t2, 7
    sw t2, 0(t1)            # ticket-1 wait returned with ticket 2 running
    li t1, DMA_STATUS
drain_loop:
    lw t2, 0(t1)
    beqz t2, drained
    wfi
    j drain_loop
drained:
    li t1, MARKER
    li t2, 8
    sw t2, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.marker_cycle(7).has_value());  // overlap window observed
  ASSERT_TRUE(r.marker_cycle(8).has_value());
  EXPECT_LT(*r.marker_cycle(7), *r.marker_cycle(8));
  // The 4 KiB transfer needs >= 512 cycles at 8 B/cycle; the 64 B wait
  // must return far earlier.
  EXPECT_GT(*r.marker_cycle(8), *r.marker_cycle(7) + 256);
  EXPECT_EQ(r.counters.get("dma.retired"), 2U);
  EXPECT_GT(r.counters.get("dma.retired_reads"), 0U);
}

TEST(DmaRetire, TicketRegistersAreDirectionChecked) {
  // Writes to the read-only ticket/retired registers are programming
  // errors and must fault loudly, like the status register.
  for (const char* reg : {"DMA_TICKET", "DMA_RETIRED"}) {
    ClusterConfig cfg = ClusterConfig::tiny();
    cfg.perfect_icache = true;
    Cluster cluster(cfg);
    const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, )" + std::string(reg) + R"(
    sw zero, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
    const RunResult r = mp3d::testing::run_asm(cluster, src, 100'000);
    EXPECT_FALSE(r.ok()) << reg;
    EXPECT_NE(r.core_errors[0].find("read-only"), std::string::npos) << reg;
  }
}

TEST(DmaRetire, StagedAxpyOverlapSafeWithTwoEnginesPerGroup) {
  // With several engines per group the staged axpy's write-back and the
  // next prefetch can run concurrently, so the kernel guards the buffer
  // reuse with a descriptor-granular wait. The host-reference verify
  // catches any missed anti-dependence.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.dma.engines_per_group = 2;
  cfg.validate();
  Cluster cluster(cfg);
  const RunResult r = kernels::run_kernel(
      cluster, kernels::build_axpy_staged(cfg, 4096, 7, /*use_dma=*/true, 1024),
      50'000'000);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.counters.get("dma.retired_reads"), 0U);
}

}  // namespace
}  // namespace mp3d::arch
