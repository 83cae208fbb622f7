// SPDX-License-Identifier: Apache-2.0
// Interconnect contention properties: port serialization, head-of-line
// blocking, fairness, and memory consistency under random traffic.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::run_asm;
using mp3d::testing::step_requests;

TEST(InterconnectUnit, NetworkSelection) {
  ClusterConfig cfg = ClusterConfig::mempool(MiB(1));
  Interconnect noc(cfg);
  // Same group (tiles 0..15) -> local network 0.
  EXPECT_EQ(noc.network(0, 5), 0U);
  EXPECT_EQ(noc.network(14, 3), 0U);
  // Group 0 -> group 1 = XOR 1; -> group 2 = XOR 2; -> group 3 = XOR 3.
  EXPECT_EQ(noc.network(0, 16), 1U);
  EXPECT_EQ(noc.network(0, 32), 2U);
  EXPECT_EQ(noc.network(0, 48), 3U);
  // Symmetric.
  EXPECT_EQ(noc.network(16, 0), 1U);
  EXPECT_EQ(noc.network(48, 0), 3U);
}

TEST(InterconnectUnit, PipeLatenciesMatchConfig) {
  ClusterConfig cfg = ClusterConfig::mempool(MiB(1));
  Interconnect noc(cfg);
  EXPECT_EQ(noc.pipe_latency(0), cfg.local_net_pipe);
  for (const u32 net : {1U, 2U, 3U}) {
    EXPECT_EQ(noc.pipe_latency(net), cfg.global_net_pipe);
  }
}

TEST(InterconnectUnit, EgressQueueBackPressure) {
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.port_queue_depth = 2;
  Interconnect noc(cfg);
  ASSERT_TRUE(noc.can_push_request(0, 0, 1));
  noc.push_request(0, 1, /*net=*/0, /*handle=*/0, {}, 1);
  noc.push_request(0, 1, /*net=*/0, /*handle=*/1, {}, 1);
  EXPECT_FALSE(noc.can_push_request(0, 0, 1));  // depth 2 reached
  // One injection per cycle frees one slot.
  u32 delivered = 0;
  step_requests(noc, 1, [&](u32, u32) { ++delivered; });
  EXPECT_TRUE(noc.can_push_request(0, 0, 1));
}

TEST(InterconnectUnit, OneFlitPerCyclePerPort) {
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.port_queue_depth = 8;
  Interconnect noc(cfg);
  for (u32 i = 0; i < 6; ++i) {
    noc.push_request(0, 1, /*net=*/0, /*handle=*/i, {}, 1);
  }
  // With a 1-cycle pipe, deliveries trail injections by one cycle and are
  // capped at 1/cycle by both egress and ingress ports.
  u32 total = 0;
  for (sim::Cycle c = 1; c <= 10; ++c) {
    u32 now = 0;
    step_requests(noc, c, [&](u32, u32) { ++now; });
    EXPECT_LE(now, 1U);
    total += now;
  }
  EXPECT_EQ(total, 6U);
}

TEST(InterconnectUnit, AFullMailboxDeliversInPortOrder) {
  // Every tile of group 0 pushes port_queue_depth requests to group 1 in
  // one cycle: the most one group can push to another, which fills the
  // mailbox exactly. Tile t sends to tile tiles_per_group + t, so no two
  // ports share an ingress port and flit j of each port injects at cycle
  // 2 + j (the cycle after the pushes) and arrives a global pipe later.
  for (const u32 depth : {1U, 4U, 8U}) {
    SCOPED_TRACE("port_queue_depth " + std::to_string(depth));
    ClusterConfig cfg = ClusterConfig::mini();
    cfg.num_groups = 2;
    cfg.port_queue_depth = depth;
    cfg.validate();
    Interconnect noc(cfg);
    const u32 tiles = cfg.tiles_per_group;
    const u32 net = noc.network(0, tiles);
    noc.begin_cycle(1);
    for (u32 g = 0; g < noc.num_groups(); ++g) {
      noc.begin_group(g);
    }
    for (u32 t = 0; t < tiles; ++t) {
      for (u32 j = 0; j < depth; ++j) {
        ASSERT_TRUE(noc.can_push_request(t, net, 1));
        noc.push_request(t, tiles + t, net, /*handle=*/t << 8 | j, {}, 1);
      }
    }
    for (u32 t = 0; t < tiles; ++t) {
      EXPECT_FALSE(noc.can_push_request(t, net, 1)) << "tile " << t << " took one push too many";
    }
    noc.end_cycle(1);
    std::vector<u32> next(tiles, 0);
    u32 delivered = 0;
    for (sim::Cycle now = 2; now < 2 + depth + cfg.global_net_pipe + 2; ++now) {
      step_requests(noc, now, [&](u32 dst_tile, u32 handle) {
        const u32 t = handle >> 8;
        ASSERT_LT(t, tiles);
        EXPECT_EQ(dst_tile, tiles + t);
        EXPECT_EQ(handle & 0xFFU, next[t]) << "tile " << t << " out of port order";
        EXPECT_EQ(now, 2 + next[t] + cfg.global_net_pipe) << "tile " << t;
        ++next[t];
        ++delivered;
      });
    }
    EXPECT_EQ(delivered, tiles * depth);
    EXPECT_TRUE(noc.idle());
    sim::CounterSet counters;
    noc.add_counters(counters);
    EXPECT_EQ(counters.get("noc.req_flits"), tiles * depth);
    EXPECT_EQ(counters.get("noc.req_hol_blocked"), 0U);
  }
}

TEST(InterconnectUnit, RotatingStartArbitratesContendedIngress) {
  // Tiles 1 and 2 of the one-group mini cluster each send one flit to tile
  // 0 on the local network: egress ports 4 and 8 (tile * 4 + net) of 16,
  // contending for tile 0's single ingress port. Delivery visits the ports
  // starting at `now % 16` and wrapping, so port 8 wins exactly when the
  // start lies in (4, 8]; the loser is head-of-line blocked for a cycle.
  const ClusterConfig cfg = ClusterConfig::mini();
  ASSERT_EQ(cfg.num_tiles(), 4U);
  ASSERT_EQ(cfg.local_net_pipe, 1U);
  for (sim::Cycle arrive = 16; arrive < 32; ++arrive) {
    SCOPED_TRACE("arrival cycle " + std::to_string(arrive));
    Interconnect noc(cfg);
    // Each flit's handle names its egress port.
    noc.push_request(1, 0, /*net=*/0, /*handle=*/4, {}, arrive - 1);
    noc.push_request(2, 0, /*net=*/0, /*handle=*/8, {}, arrive - 1);
    std::vector<u32> seen;
    const auto sink = [&](u32 dst_tile, u32 handle) {
      EXPECT_EQ(dst_tile, 0U);
      seen.push_back(handle);
    };
    step_requests(noc, arrive - 1, sink);  // both inject; the pipe takes a cycle
    EXPECT_TRUE(seen.empty());

    step_requests(noc, arrive, sink);
    const u64 start = arrive % 16;
    const u32 winner = start > 4 && start <= 8 ? 8 : 4;
    ASSERT_EQ(seen.size(), 1U) << "one ingress port delivers one flit per cycle";
    EXPECT_EQ(seen[0], winner);
    sim::CounterSet counters;
    noc.add_counters(counters);
    EXPECT_EQ(counters.get("noc.req_hol_blocked"), 1U);
    EXPECT_LE(noc.next_event_cycle(arrive), arrive + 1) << "the loser is still ready";

    step_requests(noc, arrive + 1, sink);
    ASSERT_EQ(seen.size(), 2U);
    EXPECT_EQ(seen[1], winner == 4 ? 8 : 4);
    EXPECT_TRUE(noc.idle());
    EXPECT_EQ(noc.next_event_cycle(arrive + 1), sim::kNever);
    counters.reset();
    noc.add_counters(counters);
    EXPECT_EQ(counters.get("noc.req_hol_blocked"), 1U);
    EXPECT_EQ(counters.get("noc.req_flits"), 2U);
  }
}

TEST(InterconnectUnit, HolBlockedRingsOutgrowTheirSlotsInPushOrder) {
  // Tiles 1, 2 and 3 of the mini cluster each push one flit a cycle to
  // tile 0 for 48 cycles. Tile 0's single ingress port takes one flit a
  // cycle, so the arrived flits pile up behind head-of-line blocking until
  // the rings outgrow their initial slots. Growing must keep every port's
  // flits in push order and deliver each at the cycle it was delivered
  // before the rings shared one slab: the winner sequence, first and last
  // delivery cycles and counters below were recorded from the per-port
  // ring design.
  const ClusterConfig cfg = ClusterConfig::mini();
  Interconnect noc(cfg);
  const u32 initial_slots = noc.request_ring_slots();
  std::array<u32, 4> pushed{};
  std::array<u32, 4> delivered{};
  std::string winners;
  std::vector<sim::Cycle> cycles;
  for (sim::Cycle now = 1; now < 1000; ++now) {
    step_requests(noc, now, [&](u32 dst_tile, u32 handle) {
      EXPECT_EQ(dst_tile, 0U);
      const u32 tile = handle >> 16;
      EXPECT_EQ(handle & 0xFFFFU, delivered[tile]++) << "tile " << tile << " out of push order";
      winners += static_cast<char>('0' + tile);
      cycles.push_back(now);
    });
    if (now <= 48) {
      for (u32 tile = 1; tile <= 3; ++tile) {
        ASSERT_TRUE(noc.can_push_request(tile, 0, now));
        noc.push_request(tile, 0, /*net=*/0, tile << 16 | pushed[tile]++, {}, now);
      }
    } else if (noc.idle()) {
      break;
    }
  }
  EXPECT_GT(noc.request_ring_slots(), initial_slots);
  EXPECT_EQ(winners,
            "112222333311111111222233331111111122223333111111112222333311111111"
            "222233331111111122223333111111222222333322222222222233332222223333"
            "333333333333");
  ASSERT_EQ(cycles.size(), 144U);
  EXPECT_EQ(cycles.front(), 3U);
  EXPECT_EQ(cycles.back(), 146U);  // one delivery every cycle in between
  sim::CounterSet counters;
  noc.add_counters(counters);
  EXPECT_EQ(counters.get("noc.req_flits"), 144U);
  EXPECT_EQ(counters.get("noc.req_hol_blocked"), 363U);
}

TEST(InterconnectStress, RandomDisjointTrafficIsConsistent) {
  // Every core writes a unique pattern to a pseudo-random remote location,
  // then reads it back after a barrier-like delay; values must match.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = ctrl_prelude(cfg) + R"(
.equ BASE, 0x4100
.equ DONE, 0x4080
.text 0x80000000
_start:
    csrr t0, mhartid
    # target = BASE + ((id * 97) % 256) * 64  (disjoint per core)
    li t1, 97
    mul t1, t0, t1
    andi t1, t1, 255
    slli t1, t1, 6
    li t2, BASE
    add t2, t2, t1
    # pattern = id * 0x01010101 + 7
    li t3, 0x01010101
    mul t3, t0, t3
    addi t3, t3, 7
    sw t3, 0(t2)
    fence
    li t4, DONE
    li t5, 1
    amoadd.w zero, t5, (t4)
wait:
    lw t6, 0(t4)
    li a1, 16
    bne t6, a1, wait
    lw a2, 0(t2)            # read back own location
    bne a2, t3, fail
    bnez t0, park
    li a0, 0
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
fail:
    li a0, 1
    li t0, EOC
    sw a0, 0(t0)
)";
  const RunResult r = run_asm(cluster, src, 2'000'000);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 0U);
}

TEST(InterconnectStress, AllCoresHammerOneRemoteTile) {
  // Saturating a single tile's banks from everywhere must serialize but
  // complete, and conflicts + port back-pressure must be visible.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  // Interleaved words 16..31 live in tile 1's banks.
  const std::string src = ctrl_prelude(cfg) + R"(
.equ DONE, 0x4080
.text 0x80000000
_start:
    csrr t0, mhartid
    li t1, 0x4040            # interleaved word 16 (tile 1, bank 0)
    li t2, 64
    li t3, 1
loop:
    amoadd.w zero, t3, (t1)
    addi t2, t2, -1
    bnez t2, loop
    li t4, DONE
    amoadd.w zero, t3, (t4)
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
  const RunResult r = run_asm(cluster, src, 4'000'000);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 16U * 64U);
  EXPECT_GT(r.counters.get("bank.conflicts"), 400U);
}

// Parameterized property: the measured zero-load latency hierarchy holds
// for several LSU depths and pipe configurations.
class LatencyProperty : public ::testing::TestWithParam<u32> {};

TEST_P(LatencyProperty, HierarchyPreservedAcrossLsuDepths) {
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;
  cfg.lsu_max_outstanding = GetParam();
  Cluster cluster(cfg);
  const u32 local = cluster.addr_map().interleaved_addr(0);
  const u32 remote = cluster.addr_map().interleaved_addr(16);
  auto chain = [&](u32 addr) {
    std::string body;
    for (int i = 0; i < 16; ++i) {
      body += "    lw t1, 0(t1)\n";
    }
    const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, )" + std::to_string(addr) + R"(
    csrr t5, mcycle
)" + body + R"(
    sub t2, t1, t1
    csrr t6, mcycle
    sub a0, t6, t5
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
    isa::AsmOptions opt;
    opt.default_base = cfg.gmem_base;
    cluster.load_program(isa::assemble(src, opt));
    cluster.write_word(addr, addr);
    const RunResult r = cluster.run(100'000);
    EXPECT_TRUE(r.eoc);
    return (static_cast<double>(r.exit_code) - 2.0) / 16.0;
  };
  EXPECT_DOUBLE_EQ(chain(local), 1.0) << "lsu=" << GetParam();
  EXPECT_DOUBLE_EQ(chain(remote), 3.0) << "lsu=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(LsuDepths, LatencyProperty, ::testing::Values(1, 2, 4, 8, 16),
                         [](const auto& info) {
                           return "depth" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mp3d::arch
