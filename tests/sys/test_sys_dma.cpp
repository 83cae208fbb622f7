// SPDX-License-Identifier: Apache-2.0
// Cluster-to-cluster DMA: data integrity between gmem shards, grant/latency
// timing through the icn, ticket watermarks, contention fairness and
// fast-forward-safe state.
#include <gtest/gtest.h>

#include <vector>

#include "arch/global_mem.hpp"
#include "sys/icn.hpp"
#include "sys/sys_dma.hpp"

namespace mp3d {
namespace {

constexpr u32 kBase = 0x8000'0000;

struct Rig {
  sys::IcnConfig icn_cfg;
  sys::SysDmaConfig dma_cfg;
  std::vector<std::unique_ptr<arch::GlobalMemory>> shards;
  std::unique_ptr<sys::ClusterIcn> icn;
  std::unique_ptr<sys::SysDma> dma;

  explicit Rig(u32 clusters, u32 link_bytes = 64, u32 port_bytes = 64) {
    icn_cfg.link_bytes_per_cycle = link_bytes;
    dma_cfg.port_bytes_per_cycle = port_bytes;
    std::vector<arch::GlobalMemory*> ptrs;
    for (u32 k = 0; k < clusters; ++k) {
      shards.push_back(
          std::make_unique<arch::GlobalMemory>(kBase, MiB(1), 16, 4));
      ptrs.push_back(shards.back().get());
    }
    icn = std::make_unique<sys::ClusterIcn>(icn_cfg, clusters);
    dma = std::make_unique<sys::SysDma>(dma_cfg, *icn, ptrs);
  }

  /// Step everything until the engine's watermark reaches `ticket`.
  sim::Cycle run_until_retired(u32 engine, u64 ticket, sim::Cycle from = 0) {
    sim::Cycle now = from;
    while (dma->retired(engine) < ticket) {
      ++now;
      dma->step(now);
      EXPECT_LT(now, 100'000U);
    }
    return now;
  }
};

TEST(SysDma, MovesThePatternBetweenShards) {
  Rig rig(2);
  const u32 words = 300;
  for (u32 i = 0; i < words; ++i) {
    rig.shards[0]->write_word(kBase + i * 4, 0xC0DE'0000 + i);
  }
  const u64 ticket = rig.dma->push(
      1, sys::C2cDescriptor{0, 1, kBase, kBase + 0x1000, words * 4, 0});
  EXPECT_EQ(ticket, 1U);
  rig.run_until_retired(1, ticket);
  for (u32 i = 0; i < words; ++i) {
    ASSERT_EQ(rig.shards[1]->read_word(kBase + 0x1000 + i * 4),
              0xC0DE'0000 + i)
        << "word " << i;
  }
}

TEST(SysDma, CompletionWaitsOutTheRouteLatency) {
  // 256 bytes over a 64 B/cycle link = 4 grant cycles (1..4); one mesh hop
  // adds hop_latency cycles of wire after the last grant.
  Rig rig(2);
  const u32 hop = rig.icn_cfg.hop_latency;
  EXPECT_EQ(rig.dma->next_event_cycle(5), sim::kNever);  // idle: no events
  const u64 ticket =
      rig.dma->push(1, sys::C2cDescriptor{0, 1, kBase, kBase, 256, 0});
  // Backlog to claim: the engine must tick the very next cycle.
  EXPECT_EQ(rig.dma->next_event_cycle(5), 6U);
  const sim::Cycle done = rig.run_until_retired(1, ticket);
  EXPECT_EQ(done, 4U + hop);
  // The oracle agreed along the way: after the grants, the next event is
  // the in-flight completion, not a busy tick.
  EXPECT_EQ(rig.dma->next_event_cycle(done), sim::kNever);
  EXPECT_TRUE(rig.dma->idle());
}

TEST(SysDma, LocalCopyHasZeroWireLatency) {
  Rig rig(2);
  rig.shards[0]->write_word(kBase, 77);
  const u64 ticket =
      rig.dma->push(0, sys::C2cDescriptor{0, 0, kBase, kBase + 64, 4, 0});
  const sim::Cycle done = rig.run_until_retired(0, ticket);
  EXPECT_EQ(done, 1U);  // one grant cycle, zero hops
  EXPECT_EQ(rig.shards[0]->read_word(kBase + 64), 77U);
}

TEST(SysDma, EnginesShareContendedPortsFairly) {
  // Engines 1 and 2 both stream into cluster 0: its ingress budget is the
  // bottleneck, and the rotated service order must let both finish.
  Rig rig(3);
  const u32 bytes = 512;
  const u64 t1 =
      rig.dma->push(1, sys::C2cDescriptor{1, 0, kBase, kBase, bytes, 0});
  const u64 t2 = rig.dma->push(
      2, sys::C2cDescriptor{2, 0, kBase, kBase + 0x2000, bytes, 0});
  sim::Cycle now = 0;
  while (rig.dma->retired(1) < t1 || rig.dma->retired(2) < t2) {
    ++now;
    rig.dma->step(now);
    ASSERT_LT(now, 10'000U);
  }
  // Perfect sharing: 1024 bytes through a 64 B/cycle ingress = 16 grant
  // cycles, plus the longer route's wire drain.
  const u32 worst_route =
      std::max(rig.icn->route_latency(1, 0), rig.icn->route_latency(2, 0));
  EXPECT_EQ(now, 16U + worst_route);
  sim::CounterSet counters;
  rig.dma->add_counters(counters);
  EXPECT_EQ(counters.get("sys.dma.bytes"), 2U * bytes);
  EXPECT_EQ(counters.get("sys.dma.descriptors"), 2U);
}

TEST(SysDma, QueueDepthBoundsAcceptance) {
  Rig rig(2);
  const u32 depth = rig.dma_cfg.queue_depth;
  for (u32 i = 0; i < depth; ++i) {
    ASSERT_TRUE(rig.dma->can_accept(0));
    rig.dma->push(0, sys::C2cDescriptor{0, 1, kBase, kBase, 4, 0});
  }
  EXPECT_FALSE(rig.dma->can_accept(0));
  EXPECT_EQ(rig.dma->issued(0), depth);
  rig.run_until_retired(0, depth);
  EXPECT_TRUE(rig.dma->can_accept(0));
}

TEST(SysDma, SkipCyclesKeepsTheServiceRotationBitExact) {
  // Two rigs run the same contended workload; one sits idle for a span
  // that is skipped on the other (the fast-forward model: skipping happens
  // only when nothing is in flight). The subsequent schedule must match.
  const u64 kSpan = 997;
  const auto run = [&](bool skip) {
    Rig rig(3);
    sim::Cycle now = 0;
    if (skip) {
      rig.dma->skip_cycles(kSpan);
      now = kSpan;
    } else {
      for (; now < kSpan; ) {
        rig.dma->step(++now);
      }
    }
    const u64 t1 =
        rig.dma->push(1, sys::C2cDescriptor{1, 0, kBase, kBase, 256, 0});
    const u64 t2 = rig.dma->push(
        2, sys::C2cDescriptor{2, 0, kBase, kBase + 0x2000, 256, 0});
    while (rig.dma->retired(1) < t1 || rig.dma->retired(2) < t2) {
      ++now;
      rig.dma->step(now);
    }
    return now;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(SysDma, ResetRestoresAFreshEngineState) {
  Rig rig(2);
  rig.shards[0]->write_word(kBase, 5);
  const u64 ticket =
      rig.dma->push(1, sys::C2cDescriptor{0, 1, kBase, kBase + 4, 4, 0});
  const sim::Cycle first_done = rig.run_until_retired(1, ticket);
  EXPECT_GT(rig.dma->activity(), 0U);

  rig.dma->reset_run_state();
  EXPECT_EQ(rig.dma->activity(), 0U);
  EXPECT_TRUE(rig.dma->idle());
  EXPECT_EQ(rig.dma->issued(1), 0U);
  // Tickets restart from 1: the rerun is indistinguishable from the first.
  EXPECT_EQ(rig.dma->push(1, sys::C2cDescriptor{0, 1, kBase, kBase + 4, 4, 0}),
            1U);
  EXPECT_EQ(rig.run_until_retired(1, 1), first_done);
}

TEST(SysDma, RejectsMalformedDescriptors) {
  Rig rig(2);
  EXPECT_THROW(
      rig.dma->push(0, sys::C2cDescriptor{0, 1, kBase, kBase, 3, 0}),
      std::exception);  // bytes not a word multiple
  EXPECT_THROW(
      rig.dma->push(0, sys::C2cDescriptor{0, 1, kBase + 2, kBase, 4, 0}),
      std::exception);  // unaligned address
  EXPECT_THROW(
      rig.dma->push(0, sys::C2cDescriptor{0, 5, kBase, kBase, 4, 0}),
      std::exception);  // cluster id out of range
}

}  // namespace
}  // namespace mp3d
