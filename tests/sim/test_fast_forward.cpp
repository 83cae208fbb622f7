// SPDX-License-Identifier: Apache-2.0
// Idle-cycle fast-forward: the cluster may jump over spans where every core
// sleeps in wfi, but only if nothing observable changes — counters, markers,
// telemetry rows, and trace bytes must be bit-identical to a fully ticked
// run. This file tests the per-component next-event sources directly, the
// cluster-level jump behavior on targeted scenarios, and a seeded fuzz
// matrix of random programs x configurations comparing both paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/cluster.hpp"
#include "arch/dma.hpp"
#include "arch/global_mem.hpp"
#include "arch/interconnect.hpp"
#include "common/prng.hpp"
#include "exp/row.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/telemetry.hpp"
#include "qos/adaptive_share.hpp"
#include "sys/system.hpp"
#include "testing.hpp"

namespace mp3d {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::random_barrier_program;
using mp3d::testing::run_asm;
using mp3d::testing::step_requests;

// ---------------------------------------------------------------------------
// Per-source next-event unit tests
// ---------------------------------------------------------------------------

TEST(FastForwardSources, GmemIdleReportsNever) {
  arch::GlobalMemory g(0x80000000, MiB(1), 16, 4);
  EXPECT_EQ(g.next_completion_cycle(100), sim::kNever);
}

TEST(FastForwardSources, GmemQueuedWorkForcesTick) {
  arch::GlobalMemory g(0x80000000, MiB(1), 16, 4);
  arch::MemRequest req;
  req.addr = 0x80000000;
  req.op = isa::Op::kLw;
  g.enqueue(req, 5);
  // Un-served queue entries must be ticked through (service order, stall
  // verdicts, and trace spans are decided cycle by cycle).
  EXPECT_EQ(g.next_completion_cycle(5), 6U);
}

TEST(FastForwardSources, GmemInFlightReportsDoneAt) {
  arch::GlobalMemory g(0x80000000, MiB(1), 16, 4);
  std::vector<arch::MemResponse> responses;
  std::vector<u32> refills;
  arch::MemRequest req;
  req.addr = 0x80000000;
  req.op = isa::Op::kLw;
  g.enqueue(req, 0);
  g.step(1, responses, refills);  // granted: in flight until latency passes
  ASSERT_TRUE(responses.empty());
  const sim::Cycle predicted = g.next_completion_cycle(1);
  EXPECT_GT(predicted, 2U);
  // Stepping straight to the predicted cycle yields the completion; one
  // cycle earlier yields nothing.
  g.step(predicted - 1, responses, refills);
  EXPECT_TRUE(responses.empty());
  g.step(predicted, responses, refills);
  EXPECT_EQ(responses.size(), 1U);
}

TEST(FastForwardSources, GmemRefillRidesTheSameQueue) {
  arch::GlobalMemory g(0x80000000, MiB(1), 16, 3);
  std::vector<arch::MemResponse> responses;
  std::vector<u32> refills;
  g.enqueue_refill(42, 32, 0);
  EXPECT_EQ(g.next_completion_cycle(0), 1U);  // queued -> must tick
  // 32 B at 16 B/cycle: ticked through while bytes are being granted, then
  // the in-flight completion cycle becomes computable (a jump target).
  sim::Cycle now = 0;
  while (g.next_completion_cycle(now) == now + 1 && now < 100) {
    ++now;
    g.step(now, responses, refills);
  }
  ASSERT_TRUE(refills.empty());
  const sim::Cycle predicted = g.next_completion_cycle(now);
  ASSERT_GT(predicted, now + 1);
  g.step(predicted, responses, refills);
  EXPECT_EQ(refills.size(), 1U);
  EXPECT_EQ(refills[0], 42U);
  EXPECT_EQ(predicted, 32 / 16 + 3U);  // grant cycles + latency
  EXPECT_EQ(g.next_completion_cycle(predicted), sim::kNever);
}

/// SPM stand-in, one map entry per word address (same shape as the DMA
/// unit tests').
class FakeSpm : public arch::DmaSpmPort {
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
  std::vector<u32> wakes_;
};

TEST(FastForwardSources, DmaNextReadyTracksBacklogAndCompletion) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  arch::GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                          cfg.gmem_latency);
  arch::DmaSubsystem dma(cfg);
  FakeSpm spm;
  EXPECT_EQ(dma.next_ready_cycle(10), sim::kNever);  // idle subsystem

  arch::DmaDescriptor d;
  d.src = cfg.gmem_base;
  d.dst = 0x2000;
  d.bytes_per_row = 64;
  d.rows = 1;
  d.to_spm = true;
  dma.push(0, d);
  // Backlog bytes remain: the descriptor cannot retire before its 64 B are
  // granted at min(16 B/cycle channel, 64 B/cycle port), 4 cycles, plus
  // the 4-cycle completion latency.
  EXPECT_EQ(dma.next_ready_cycle(10), 18U);

  std::vector<arch::MemResponse> responses;
  std::vector<u32> refills;
  sim::Cycle cycle = 0;
  while (!dma.idle() && cycle < 1000) {
    ++cycle;
    responses.clear();
    refills.clear();
    gmem.step(cycle, responses, refills, dma.backlog_bytes());
    dma.step(cycle, gmem, spm);
    if (dma.backlog_bytes() == 0 && !dma.idle()) {
      // Drained but not yet retired: the completion cycle is computable and
      // in the future, which is exactly what a jump needs.
      const sim::Cycle next = dma.next_ready_cycle(cycle);
      EXPECT_GT(next, cycle);
      EXPECT_NE(next, sim::kNever);
    }
  }
  EXPECT_TRUE(dma.idle());
  EXPECT_EQ(dma.next_ready_cycle(cycle), sim::kNever);
}

/// Random descriptor mixes over random channel, port, latency and arbiter
/// settings: next_ready_cycle(now) must be a lower bound on the next
/// retire — the cycle a group's pending() count drops or a completion wake
/// fires. A recorded bound holds until the next push (new work may retire
/// sooner, but pushing takes an awake core, which ends any jump).
TEST(FastForwardSources, DmaNextReadyIsALowerBoundOnEveryRetire) {
  Prng prng(0xB0B0D0D0ULL);
  u64 retires = 0;
  u64 tight = 0;
  u64 early = 0;
  for (int trial = 0; trial < 400; ++trial) {
    arch::ClusterConfig cfg = arch::ClusterConfig::mini();
    cfg.num_groups = std::vector<u32>{1, 2, 4}[prng.below(3)];
    cfg.tiles_per_group = 2;
    cfg.dma.engines_per_group = static_cast<u32>(prng.range(1, 3));
    cfg.dma.bytes_per_cycle = 4 * static_cast<u32>(prng.range(1, 16));
    cfg.gmem_bytes_per_cycle = static_cast<u32>(prng.range(4, 64));
    cfg.gmem_latency = std::vector<u32>{0, 1, 4, 300}[prng.below(4)];
    cfg.gmem_arbiter.bulk_min_pct = prng.chance(0.5) ? 30 : 0;
    cfg.validate();
    arch::GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                            cfg.gmem_latency, cfg.gmem_arbiter);
    arch::DmaSubsystem dma(cfg);
    FakeSpm spm;
    std::vector<arch::MemResponse> responses;
    std::vector<u32> refills;
    std::vector<u32> pending(cfg.num_groups, 0);

    sim::Cycle promise = 0;  // no retire before this cycle
    const auto record = [&](sim::Cycle now) {
      promise = std::max(promise, dma.next_ready_cycle(now));
    };
    const u32 cycles = 300 + cfg.gmem_latency * 2;
    for (sim::Cycle now = 1; now <= cycles; ++now) {
      responses.clear();
      refills.clear();
      gmem.step(now, responses, refills, dma.backlog_bytes());
      const std::size_t wakes = spm.wakes_.size();
      dma.step(now, gmem, spm);
      bool retired = spm.wakes_.size() != wakes;
      for (u32 g = 0; g < cfg.num_groups; ++g) {
        retired = retired || dma.pending(g) < pending[g];
        pending[g] = dma.pending(g);
      }
      if (retired) {
        ++retires;
        early += now < promise ? 1 : 0;
        tight += now == promise ? 1 : 0;
      }
      record(now);
      // Scalar traffic competes for the channel (and the bulk reserve).
      if (prng.chance(0.1)) {
        arch::MemRequest req;
        req.addr = cfg.gmem_base + 4 * static_cast<u32>(prng.below(1024));
        req.op = isa::Op::kLw;
        gmem.enqueue(req, now);
      }
      if (now < cycles / 2 && prng.chance(0.08)) {
        const u32 group = static_cast<u32>(prng.below(cfg.num_groups));
        if (dma.can_accept(group)) {
          arch::DmaDescriptor d;
          d.bytes_per_row = 4 * static_cast<u32>(prng.range(1, 48));
          d.rows = static_cast<u32>(prng.range(1, 3));
          d.gmem_stride = d.bytes_per_row + 4 * static_cast<u32>(prng.below(4));
          d.to_spm = prng.chance(0.5);
          d.src = d.to_spm ? cfg.gmem_base : 0x1000;
          d.dst = d.to_spm ? 0x1000 : cfg.gmem_base;
          d.waker = prng.chance(0.5) ? group : arch::kDmaNoWaker;
          dma.push(group, d, now);
          pending[group] = dma.pending(group);
          promise = 0;  // new work voids the earlier bounds
          record(now);
        }
      }
    }
  }
  EXPECT_EQ(early, 0U) << "of " << retires << " retires";
  EXPECT_GT(retires, 1000U);
  EXPECT_GT(tight, 0U);  // the bound is reached, not just respected
}

/// On one uncontended engine the bound is exact: the retire lands on the
/// cycle next_ready_cycle() predicted when the descriptor was pushed.
TEST(FastForwardSources, DmaNextReadyIsTightOnAnUncontendedEngine) {
  struct Widths {
    u32 channel;
    u32 port;
  };
  for (const Widths w : {Widths{12, 8}, Widths{8, 16}}) {
    for (const u32 latency : {0U, 1U, 4U, 300U}) {
      for (const u32 bytes : {4U, 60U, 64U, 1000U}) {
        arch::ClusterConfig cfg = arch::ClusterConfig::mini();
        cfg.gmem_latency = latency;
        cfg.gmem_bytes_per_cycle = w.channel;
        cfg.dma.bytes_per_cycle = w.port;
        arch::GlobalMemory gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle,
                                cfg.gmem_latency);
        arch::DmaSubsystem dma(cfg);
        FakeSpm spm;
        arch::DmaDescriptor d;
        d.src = cfg.gmem_base;
        d.dst = 0x1000;
        d.bytes_per_row = bytes;
        dma.push(0, d, 0);
        const sim::Cycle predicted = dma.next_ready_cycle(0);
        EXPECT_EQ(predicted, (bytes + 7) / 8 + std::max(latency, 1U));  // 8 B/cycle
        std::vector<arch::MemResponse> responses;
        std::vector<u32> refills;
        sim::Cycle now = 0;
        while (dma.pending(0) > 0) {
          ++now;
          gmem.step(now, responses, refills, dma.backlog_bytes());
          dma.step(now, gmem, spm);
        }
        EXPECT_EQ(now, predicted) << "channel " << w.channel << ", port " << w.port
                                  << ", latency " << latency << ", " << bytes << " B";
      }
    }
  }
}

TEST(FastForwardSources, NocNextEventCoversQueuesAndPipes) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.port_queue_depth = 4;
  arch::Interconnect noc(cfg);
  EXPECT_EQ(noc.next_event_cycle(50), sim::kNever);  // empty

  noc.push_request(0, 1, /*net=*/0, /*handle=*/0, {}, /*now=*/51);
  EXPECT_EQ(noc.next_event_cycle(50), 51U);  // egress queue injects next step

  // Injecting moves the flit into the delay pipe; with a 1-cycle local pipe
  // it is deliverable in the next step.
  u32 delivered = 0;
  step_requests(noc, 51, [&](u32, u32) { ++delivered; });
  EXPECT_EQ(delivered, 0U);
  const sim::Cycle next = noc.next_event_cycle(51);
  EXPECT_EQ(next, 51 + cfg.local_net_pipe);
  step_requests(noc, next, [&](u32, u32) { ++delivered; });
  EXPECT_EQ(delivered, 1U);
  EXPECT_EQ(noc.next_event_cycle(next), sim::kNever);
}

TEST(FastForwardSources, QosNextWindowIsTheDecisionBoundary) {
  arch::AdaptiveShareConfig qcfg;
  qcfg.enabled = true;
  qcfg.min_pct = 0;
  qcfg.max_pct = 40;
  qcfg.step_pct = 10;
  qcfg.window = 128;
  arch::GlobalMemory gmem(0x80000000, MiB(1), 16, 4);
  qos::AdaptiveShareController qos(qcfg, gmem);
  EXPECT_EQ(qos.next_window(), 128U);
  qos.step(128);  // window decision fires, boundary advances
  EXPECT_EQ(qos.next_window(), 256U);
}

// ---------------------------------------------------------------------------
// Cluster-level jump behavior
// ---------------------------------------------------------------------------

arch::RunResult run_with_ff(arch::ClusterConfig cfg, const std::string& src,
                            bool ff, u64 max_cycles = 2'000'000) {
  cfg.fast_forward = ff;
  arch::Cluster cluster(cfg);
  return run_asm(cluster, src, max_cycles);
}

void expect_identical(const arch::RunResult& a, const arch::RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.eoc, b.eoc);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_EQ(a.markers.size(), b.markers.size());
  for (std::size_t i = 0; i < a.markers.size(); ++i) {
    EXPECT_EQ(a.markers[i].id, b.markers[i].id);
    EXPECT_EQ(a.markers[i].core, b.markers[i].core);
    EXPECT_EQ(a.markers[i].cycle, b.markers[i].cycle);
  }
}

/// Core 1 sleeps; core 0 burns `delay` cycles, wakes it, and the woken core
/// reports through EOC. The wfi span is long and completely idle — the
/// prime fast-forward candidate.
std::string wake_after_delay_program(const arch::ClusterConfig& cfg, u32 delay) {
  return ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, 1
    beqz t0, core0
    bne t0, t1, park
    wfi
    li a0, 7
    li t0, EOC
    sw a0, 0(t0)
    j park
core0:
    li t4, )" + std::to_string(delay) + R"(
delay:
    addi t4, t4, -1
    bnez t4, delay
    li t5, WAKE_ONE
    li t6, 1
    sw t6, 0(t5)
park:
    wfi
    j park
)";
}

TEST(FastForwardCluster, WakeChainIsBitIdentical) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  const std::string src = wake_after_delay_program(cfg, 400);
  expect_identical(run_with_ff(cfg, src, true), run_with_ff(cfg, src, false));
}

TEST(FastForwardCluster, DeadlockVerdictFiresAtTheSameCycle) {
  // All cores sleep forever: the fast path must not spin the host, yet the
  // deadlock verdict (an event like any other) must land on the exact
  // as-if-ticked cycle.
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)";
  const arch::RunResult on = run_with_ff(cfg, src, true, 500'000);
  const arch::RunResult off = run_with_ff(cfg, src, false, 500'000);
  EXPECT_TRUE(on.deadlock);
  expect_identical(on, off);

  // Telemetry samples and profiler strides are boundaries a jump must land
  // on, not wakes: they neither hide the hang nor move the verdict.
  arch::ClusterConfig observed = cfg;
  observed.telemetry.sample_window = 64;
  observed.profiling.stride = 100;
  for (const bool ff : {true, false}) {
    const arch::RunResult r = run_with_ff(observed, src, ff, 500'000);
    EXPECT_TRUE(r.deadlock) << "ff " << ff;
    EXPECT_EQ(r.cycles, on.cycles) << "ff " << ff;
  }

  // The same verdict through the System, on the bare cluster's cycle: at
  // N=1, and at N=2 with the second cluster left idle.
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  kernels::Kernel sleeper;
  sleeper.name = "sleep_forever";
  sleeper.program = isa::assemble(src, options);
  for (const u32 clusters : {1U, 2U}) {
    sys::SystemConfig scfg;
    scfg.num_clusters = clusters;
    scfg.cluster = cfg;
    sys::System system(scfg);
    const sys::SystemResult r = system.run_kernel(sleeper, 500'000);
    EXPECT_TRUE(r.deadlock) << clusters << " clusters";
    ASSERT_EQ(r.jobs.size(), 1U);
    EXPECT_TRUE(r.jobs[0].result.deadlock) << clusters << " clusters";
    EXPECT_EQ(r.cycles, on.cycles) << clusters << " clusters";
  }
}

TEST(FastForwardCluster, DeadlockAfterStreamedDmaFiresAtTheSameCycle) {
  // Core 0 launches an 8 KiB load nobody waits for, then every core sleeps
  // for good. The transfer streams inside fast-forward jumps, and the
  // watchdog must still count its window from the last granted byte, as
  // in the ticked run.
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, sleep
    li t1, DMA_SRC
    li t2, 0x80100000
    sw t2, 0(t1)
    li t1, DMA_DST
    li t2, 0x1000
    sw t2, 0(t1)
    li t1, DMA_LEN
    li t2, 8192
    sw t2, 0(t1)
    li t1, DMA_START
    sw zero, 0(t1)
sleep:
    wfi
    j sleep
)";
  const arch::RunResult on = run_with_ff(cfg, src, true, 500'000);
  const arch::RunResult off = run_with_ff(cfg, src, false, 500'000);
  EXPECT_TRUE(on.deadlock);
  EXPECT_EQ(on.counters.get("dma.bytes"), 8192U);
  expect_identical(on, off);

  // The System's watchdog takes the same cycle from its clusters' jumps.
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  kernels::Kernel streamer;
  streamer.name = "stream_then_sleep";
  streamer.program = isa::assemble(src, options);
  sys::SystemConfig scfg;
  scfg.num_clusters = 1;
  scfg.cluster = cfg;
  sys::System system(scfg);
  const sys::SystemResult r = system.run_kernel(streamer, 500'000);
  EXPECT_TRUE(r.deadlock);
  EXPECT_EQ(r.cycles, on.cycles);
}

TEST(FastForwardCluster, MaxCyclesIsRespectedAcrossAJump) {
  // The jump target is clamped to max_cycles: a sleeping cluster must stop
  // at exactly the requested horizon, not beyond it.
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)";
  const arch::RunResult on = run_with_ff(cfg, src, true, 9'999);
  const arch::RunResult off = run_with_ff(cfg, src, false, 9'999);
  EXPECT_TRUE(on.hit_max_cycles);
  expect_identical(on, off);
}

TEST(FastForwardCluster, JumpAcrossSampleWindowsEmitsEveryRow) {
  // A long sleep crossing many telemetry windows: the jump must stop at
  // every window boundary so each row is sampled at its exact cycle.
  arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  cfg.telemetry.sample_window = 64;
  const std::string src = wake_after_delay_program(cfg, 2000);

  const auto timeline_csv = [&](bool ff) {
    arch::ClusterConfig c = cfg;
    c.fast_forward = ff;
    arch::Cluster cluster(c);
    run_asm(cluster, src);
    const obs::Timeline* tl = cluster.telemetry()->timeline();
    EXPECT_GE(tl->windows().size(), 2000U / 64);
    return exp::rows_to_csv(tl->to_rows("ff"));
  };
  EXPECT_EQ(timeline_csv(true), timeline_csv(false));
}

TEST(FastForwardCluster, EnvVarOverridesTheConfigKnob) {
  ::setenv("MP3D_FAST_FORWARD", "0", 1);
  arch::Cluster off(arch::ClusterConfig::tiny());
  EXPECT_FALSE(off.fast_forward_enabled());
  ::setenv("MP3D_FAST_FORWARD", "1", 1);
  arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  cfg.fast_forward = false;
  arch::Cluster on(cfg);
  EXPECT_TRUE(on.fast_forward_enabled());
  ::unsetenv("MP3D_FAST_FORWARD");
  arch::Cluster dflt(arch::ClusterConfig::tiny());
  EXPECT_TRUE(dflt.fast_forward_enabled());
}

// ---------------------------------------------------------------------------
// Seeded fuzz equivalence: random programs x configuration matrix
// ---------------------------------------------------------------------------

TEST(FastForwardFuzz, RandomBarrierProgramsAreBitIdentical) {
  Prng prng(0xF00DF00DULL);
  for (int trial = 0; trial < 6; ++trial) {
    arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
    if (prng.below(2) == 1) {
      cfg.gmem_arbiter.bulk_min_pct = 30;
    }
    if (prng.below(2) == 1) {
      cfg.telemetry.sample_window = 128;
    }
    const std::string src = random_barrier_program(cfg, prng);
    const arch::RunResult on = run_with_ff(cfg, src, true);
    const arch::RunResult off = run_with_ff(cfg, src, false);
    ASSERT_TRUE(on.eoc) << "trial " << trial;
    expect_identical(on, off);
    // The program's semantics hold too (sum == cores x iters).
    EXPECT_EQ(on.exit_code % cfg.num_cores(), 0U) << "trial " << trial;
  }
}

/// DMA-staged kernel equivalence across the config matrix: engines per
/// group, bulk share, adaptive qos, telemetry on/off, and multi-group
/// clusters whose engines share a narrow channel — several engines granted
/// bytes in one cycle, streamed inside fast-forward jumps. The staged AXPY
/// sleeps its leaders on DMA completions and everyone else on barriers —
/// jump-heavy by construction — and carries markers so their cycles are
/// compared too. Final memory is read back word-for-word.
struct MatrixPoint {
  u32 engines;
  u32 bulk_pct;
  bool qos;
  bool telemetry;
  u32 groups = 1;
  u32 tiles_per_group = 4;
  u64 spm = KiB(64);
  u32 port = 64;      ///< DMA engine port, B/cycle
  u32 channel = 16;   ///< gmem channel, B/cycle
  u32 latency = 4;    ///< gmem latency, cycles
  u32 n = 512;        ///< AXPY elements
};

TEST(FastForwardFuzz, DmaStagedKernelMatrixIsBitIdentical) {
  const MatrixPoint points[] = {
      {1, 0, false, false},
      {2, 30, false, false},
      {1, 25, true, false},
      {2, 0, false, true},
      {1, 40, true, true},
      // Several groups' engines on one 8..16 B/cycle channel through
      // 4 B/cycle ports.
      {1, 0, false, false, 2, 2, KiB(256), 4, 8, 0, 2048},
      {2, 30, false, true, 4, 2, KiB(256), 4, 16, 1, 2048},
      {1, 0, false, false, 2, 4, KiB(256), 4, 12, 300, 2048},
      {2, 0, false, true, 4, 2, KiB(256), 4, 8, 4, 2048},
  };
  for (const MatrixPoint& p : points) {
    arch::ClusterConfig cfg = arch::ClusterConfig::mini(p.spm);
    cfg.num_groups = p.groups;
    cfg.tiles_per_group = p.tiles_per_group;
    cfg.dma.engines_per_group = p.engines;
    cfg.dma.bytes_per_cycle = p.port;
    cfg.gmem_bytes_per_cycle = p.channel;
    cfg.gmem_latency = p.latency;
    cfg.gmem_arbiter.bulk_min_pct = p.bulk_pct;
    if (p.qos) {
      cfg.qos.enabled = true;
      cfg.qos.min_pct = 0;
      cfg.qos.max_pct = 40;
      cfg.qos.step_pct = 10;
      cfg.qos.window = 128;
    }
    if (p.telemetry) {
      cfg.telemetry.sample_window = 256;
      cfg.telemetry.trace = true;
    }
    cfg.validate();
    SCOPED_TRACE(cfg.to_string());

    const auto run_one = [&](bool ff, std::string* timeline,
                             std::string* trace_json,
                             std::vector<u32>* memory) {
      arch::ClusterConfig c = cfg;
      c.fast_forward = ff;
      arch::Cluster cluster(c);
      const kernels::Kernel k = kernels::build_axpy_staged(
          c, p.n, 3, /*use_dma=*/true, /*chunk=*/0, /*seed=*/7,
          /*markers=*/true);
      const arch::RunResult r = kernels::run_kernel(cluster, k, 10'000'000);
      // Read back a gmem window covering the kernel's staged output.
      *memory = cluster.read_words(c.gmem_base + MiB(1), 1024);
      if (p.telemetry) {
        const obs::Timeline* tl = cluster.telemetry()->timeline();
        *timeline = exp::rows_to_csv(tl->to_rows("ff"));
        *trace_json = obs::to_chrome_json(*cluster.telemetry()->trace());
      }
      if (cluster.fast_forward_enabled()) {
        // The point exercises the jump path, not only the ticked one.
        EXPECT_GT(cluster.fast_forwarded_cycles(), 0U);
      }
      return r;
    };

    std::string tl_on;
    std::string tl_off;
    std::string tr_on;
    std::string tr_off;
    std::vector<u32> mem_on;
    std::vector<u32> mem_off;
    const arch::RunResult on = run_one(true, &tl_on, &tr_on, &mem_on);
    const arch::RunResult off = run_one(false, &tl_off, &tr_off, &mem_off);
    ASSERT_TRUE(on.eoc);
    ASSERT_FALSE(on.markers.empty());
    expect_identical(on, off);
    EXPECT_EQ(mem_on, mem_off);
    EXPECT_EQ(tl_on, tl_off);   // telemetry rows byte-identical
    EXPECT_EQ(tr_on, tr_off);   // trace export byte-identical
  }
}

// ---------------------------------------------------------------------------
// System-path equivalence: the multi-cluster driver's jump logic
// ---------------------------------------------------------------------------

/// A staged job mix that keeps the system DMA, the per-cluster DMA engines
/// and the wfi/wake machinery all in flight with staggered cluster clock
/// offsets — every fast-forward source the System loop consults.
std::vector<sys::JobSpec> staged_job_mix(const arch::ClusterConfig& cfg,
                                         u32 clusters) {
  std::vector<sys::JobSpec> jobs;
  for (u32 i = 0; i < clusters + 1; ++i) {
    sys::JobSpec job;
    job.name = "memcpy" + std::to_string(i);
    job.kernel =
        kernels::build_memcpy_dma(cfg, 1024, /*rounds=*/1 + i % 3, /*seed=*/5 + i);
    job.input_base = static_cast<u32>(cfg.gmem_base + MiB(1));
    job.input_bytes = 1024 * 4;
    job.output_base = job.input_base;
    job.output_bytes = 256;  // write a slice back through the mesh too
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(FastForwardFuzz, SystemRunsAreBitIdenticalAcrossClusterCounts) {
  for (const u32 clusters : {1U, 2U, 4U}) {
    const auto run_one = [&](bool ff) {
      sys::SystemConfig cfg;
      cfg.num_clusters = clusters;
      cfg.cluster = arch::ClusterConfig::mini();
      cfg.cluster.fast_forward = ff;
      cfg.policy = sys::SchedPolicy::kLeastLoaded;
      sys::System system(cfg);
      sys::SystemResult result =
          system.run_jobs(staged_job_mix(cfg.cluster, clusters), 20'000'000);
      // Worker memories are observable state too: read back each cluster's
      // staged gmem window after the run.
      std::vector<std::vector<u32>> memory;
      for (u32 k = 0; k < clusters; ++k) {
        memory.push_back(
            system.cluster(k).read_words(cfg.cluster.gmem_base + MiB(1), 1024));
      }
      return std::make_pair(std::move(result), std::move(memory));
    };
    const auto on = run_one(true);
    const auto off = run_one(false);
    ASSERT_TRUE(on.first.ok) << clusters << " clusters";
    EXPECT_EQ(on.first.cycles, off.first.cycles) << clusters << " clusters";
    EXPECT_TRUE(on.first.counters == off.first.counters)
        << clusters << " clusters";
    ASSERT_EQ(on.first.jobs.size(), off.first.jobs.size());
    for (std::size_t i = 0; i < on.first.jobs.size(); ++i) {
      const sys::JobRecord& a = on.first.jobs[i];
      const sys::JobRecord& b = off.first.jobs[i];
      EXPECT_EQ(a.cluster, b.cluster);
      EXPECT_EQ(a.started_at, b.started_at);
      EXPECT_EQ(a.eoc_at, b.eoc_at);
      EXPECT_EQ(a.completed_at, b.completed_at);
      expect_identical(a.result, b.result);
    }
    EXPECT_EQ(on.second, off.second);  // every shard's memory, word for word
  }
}

}  // namespace
}  // namespace mp3d
