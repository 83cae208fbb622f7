// SPDX-License-Identifier: Apache-2.0
// Golden counters: the absolute cycle count and every counter of two
// reference runs on the 4-group, 256-core MemPool and of a remote-heavy
// program on the mini cluster at three LSU depths.
// The identity gates elsewhere (fast-forward on/off, N=1 System vs a bare
// Cluster, --jobs) compare the simulator against itself, so a rewrite that
// changed, say, the NoC's arbitration order would still pass them. The
// paper-shape tables were recorded from the simulator before its NoC and
// bank hot path was made allocation-free, the remote-heavy ones before
// SPM requests travelled as per-slot transaction handles; a failure names
// the counter that moved.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "arch/cluster.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/telemetry.hpp"
#include "testing.hpp"

namespace mp3d {
namespace {

using Golden = std::map<std::string, u64>;

void expect_golden(const arch::RunResult& result, u64 cycles, const Golden& golden) {
  EXPECT_EQ(result.cycles, cycles);
  const auto& counters = result.counters.all();
  for (const auto& [name, value] : golden) {
    const auto it = counters.find(name);
    if (it == counters.end()) {
      ADD_FAILURE() << "counter " << name << " is missing";
      continue;
    }
    EXPECT_EQ(it->second, value) << "counter " << name;
  }
  for (const auto& [name, value] : counters) {
    EXPECT_TRUE(golden.count(name) != 0) << "unexpected counter " << name << " = " << value;
  }
}

// The e2e benchmark's matmul_4mib at its smoke size: every core busy on
// remote interleaved SPM traffic through all four networks.
TEST(GoldenCounters, Matmul4MiBPaperShape) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(4));
  cfg.gmem_bytes_per_cycle = 16;
  kernels::MatmulParams params;
  params.m = 64;
  params.t = 32;
  arch::Cluster cluster(cfg);
  const arch::RunResult result = kernels::run_kernel(
      cluster, kernels::build_matmul(cfg, params), 10'000'000, /*warm_icache=*/true);
  const Golden golden = {
      {"bank.accesses", 218430},
      {"bank.conflict_wait_cycles", 481857},
      {"bank.conflicts", 8549},
      {"bank.reads", 173846},
      {"bank.writes", 49704},
      {"core.instret", 868314},
      {"core.mac_ops", 262144},
      {"core.mem_ops", 239193},
      {"core.stall_fence", 203},
      {"core.stall_fetch", 0},
      {"core.stall_flush", 90897},
      {"core.stall_lsu_full", 218},
      {"core.stall_port_busy", 20598},
      {"core.stall_raw", 1206952},
      {"core.wfi_cycles", 2828370},
      {"cycles", 19592},
      {"dma.busy_cycles", 0},
      {"dma.bytes", 0},
      {"dma.descriptors", 0},
      {"dma.queue_full_stall_cycles", 0},
      {"dma.retired", 0},
      {"dma.retired_reads", 0},
      {"dma.status_reads", 0},
      {"dma.wakes", 0},
      {"dma.wakes_suppressed", 0},
      {"gmem.bulk_bytes", 0},
      {"gmem.bulk_demand_cycles", 0},
      {"gmem.bulk_stall_cycles", 0},
      {"gmem.busy_cycles", 5181},
      {"gmem.bytes", 81920},
      {"gmem.requests", 20480},
      {"gmem.scalar_bytes", 81920},
      {"gmem.scalar_stall_cycles", 0},
      {"icache.hits", 2096285},
      {"icache.misses", 0},
      {"noc.global_hops", 248683},
      {"noc.local_hops", 111259},
      {"noc.req_flits", 180084},
      {"noc.req_hol_blocked", 98573},
      {"noc.resp_flits", 179858},
      {"noc.resp_hol_blocked", 55030},
  };
  expect_golden(result, 19'592, golden);
}

// DMA-staged AXPY on the 1 MiB cluster at 8 B/cycle: bulk gmem traffic,
// sleeping cores woken by DMA completions, and fast-forwarded spans.
TEST(GoldenCounters, AxpyStagedDmaBw8) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
  cfg.gmem_bytes_per_cycle = 8;
  arch::Cluster cluster(cfg);
  const arch::RunResult result = kernels::run_kernel(
      cluster, kernels::build_axpy_staged(cfg, 16384, 3, /*use_dma=*/true), 10'000'000,
      /*warm_icache=*/true);
  const Golden golden = {
      {"bank.accesses", 53275},
      {"bank.conflict_wait_cycles", 83044},
      {"bank.conflicts", 5186},
      {"bank.reads", 35605},
      {"bank.writes", 18438},
      {"core.instret", 117355},
      {"core.mac_ops", 16384},
      {"core.mem_ops", 53636},
      {"core.stall_fence", 140},
      {"core.stall_fetch", 0},
      {"core.stall_flush", 15438},
      {"core.stall_lsu_full", 9461},
      {"core.stall_port_busy", 7187},
      {"core.stall_raw", 156908},
      {"core.wfi_cycles", 6349767},
      {"cycles", 26001},
      {"dma.busy_cycles", 24576},
      {"dma.bytes", 196608},
      {"dma.descriptors", 12},
      {"dma.queue_full_stall_cycles", 0},
      {"dma.retired", 12},
      {"dma.retired_reads", 4},
      {"dma.status_reads", 20},
      {"dma.wakes", 12},
      {"dma.wakes_suppressed", 0},
      {"gmem.bulk_bytes", 196608},
      {"gmem.bulk_demand_cycles", 24576},
      {"gmem.bulk_stall_cycles", 0},
      {"gmem.busy_cycles", 24576},
      {"gmem.bytes", 196608},
      {"gmem.requests", 0},
      {"gmem.scalar_bytes", 0},
      {"gmem.scalar_stall_cycles", 0},
      {"icache.hits", 291051},
      {"icache.misses", 0},
      {"noc.global_hops", 75854},
      {"noc.local_hops", 23703},
      {"noc.req_flits", 49899},
      {"noc.req_hol_blocked", 27951},
      {"noc.resp_flits", 49658},
      {"noc.resp_hol_blocked", 24252},
  };
  expect_golden(result, 26'001, golden);
}

// A remote-heavy program on the one-group mini cluster: every core owns a
// 256-byte window of the interleaved SPM, which spans all four tiles, and
// hammers it with bursts of independent stores, sub-word and
// post-incrementing loads, AMOs and lr/sc, so three quarters of its
// accesses cross the local network. The egress queues hold one flit, so
// port back-pressure and head-of-line blocking are constant. Each core
// leaves a checksum of what it loaded; core 0 exits with their sum.
std::string remote_heavy_program(const arch::ClusterConfig& cfg) {
  return testing::ctrl_prelude(cfg) + R"(
.equ WINDOWS, 0x4000
.equ SUMS, 0x5000
.equ DONE, 0x5080
.text 0x80000000
_start:
    csrr t0, mhartid
    slli s0, t0, 8
    li t2, WINDOWS
    add s0, s0, t2          # s0 = this core's 256-byte window
    li s1, 0                # checksum of the loaded values
    li s2, 8                # register post-increment
    li t1, 24               # iterations
loop:
    mv t2, s0
    addi t3, s0, 192
    addi t4, s0, 128
    sw t1, 0(t2)
    sw t0, 64(t2)
    sw t1, 128(t2)
    sw t0, 192(t2)
    sh t1, 4(t2)
    sh t0, 70(t2)
    sb t1, 133(t2)
    sb t0, 199(t2)
    sw t1, 8(t2)
    sw t1, 72(t2)
    sw t1, 136(t2)
    sw t1, 200(t2)
    sw t0, 12(t2)
    sw t0, 76(t2)
    sw t0, 140(t2)
    sw t0, 204(t2)
    p.sw t1, 16(t4!)
    p.sw t0, 16(t4!)
    sw t1, 20(t2)
    sw t1, 84(t2)
    sw t1, 148(t2)
    sw t1, 212(t2)
    amoadd.w zero, t0, (t3)
    lw a0, 64(t2)
    lb a1, 133(t2)
    lbu a2, 199(t2)
    lh a3, 70(t2)
    lhu a4, 4(t2)
    amoadd.w a5, t1, (t3)
    lr.w a6, (t4)
    sc.w a7, t1, (t4)
    p.lw s3, 4(t2!)
    p.lw s4, s2(t2!)
    lw s5, 0(t2)
    add s1, s1, a0
    add s1, s1, a1
    add s1, s1, a2
    add s1, s1, a3
    add s1, s1, a4
    add s1, s1, a5
    add s1, s1, a6
    add s1, s1, a7
    add s1, s1, s3
    add s1, s1, s4
    add s1, s1, s5
    addi t1, t1, -1
    bnez t1, loop
    slli t5, t0, 2
    li t6, SUMS
    add t5, t5, t6
    sw s1, 0(t5)
    fence
    li t4, DONE
    li t5, 1
    amoadd.w zero, t5, (t4)
    bnez t0, park
    li t6, 16
wait:
    lw t5, 0(t4)
    bne t5, t6, wait
    li t2, SUMS
    li a0, 0
    li t3, 16
sum:
    lw t5, 0(t2)
    add a0, a0, t5
    addi t2, t2, 4
    addi t3, t3, -1
    bnez t3, sum
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
}

struct RemoteHeavyCase {
  u32 lsu_max_outstanding;
  u32 exit_code;
  u64 cycles;
  Golden golden;
};

class GoldenRemoteHeavy : public ::testing::TestWithParam<RemoteHeavyCase> {};

TEST_P(GoldenRemoteHeavy, MiniPortDepth1) {
  const RemoteHeavyCase& c = GetParam();
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.lsu_max_outstanding = c.lsu_max_outstanding;
  cfg.port_queue_depth = 1;
  arch::Cluster cluster(cfg);
  const arch::RunResult result =
      testing::run_asm(cluster, remote_heavy_program(cfg), 1'000'000);
  ASSERT_TRUE(result.eoc);
  EXPECT_EQ(result.exit_code, c.exit_code);
  expect_golden(result, c.cycles, c.golden);
}

// LSU depth 1, a depth that is not a power of two, and the deepest LSU
// (32 slots per core).
INSTANTIATE_TEST_SUITE_P(
    LsuDepths, GoldenRemoteHeavy,
    ::testing::Values(
        RemoteHeavyCase{1, 41264, 4'226,
                        {
                            {"bank.accesses", 13205},
                            {"bank.conflict_wait_cycles", 1971},
                            {"bank.conflicts", 1837},
                            {"bank.reads", 4741},
                            {"bank.writes", 10016},
                            {"core.instret", 19810},
                            {"core.mac_ops", 0},
                            {"core.mem_ops", 13206},
                            {"core.stall_fence", 34},
                            {"core.stall_fetch", 579},
                            {"core.stall_flush", 996},
                            {"core.stall_lsu_full", 34499},
                            {"core.stall_port_busy", 2835},
                            {"core.stall_raw", 255},
                            {"core.wfi_cycles", 8608},
                            {"cycles", 4226},
                            {"dma.busy_cycles", 0},
                            {"dma.bytes", 0},
                            {"dma.descriptors", 0},
                            {"dma.queue_full_stall_cycles", 0},
                            {"dma.retired", 0},
                            {"dma.retired_reads", 0},
                            {"dma.status_reads", 0},
                            {"dma.wakes", 0},
                            {"dma.wakes_suppressed", 0},
                            {"gmem.bulk_bytes", 0},
                            {"gmem.bulk_demand_cycles", 0},
                            {"gmem.bulk_stall_cycles", 0},
                            {"gmem.busy_cycles", 82},
                            {"gmem.bytes", 1312},
                            {"gmem.requests", 41},
                            {"gmem.scalar_bytes", 1312},
                            {"gmem.scalar_stall_cycles", 0},
                            {"icache.hits", 57433},
                            {"icache.misses", 41},
                            {"noc.global_hops", 0},
                            {"noc.local_hops", 19834},
                            {"noc.req_flits", 9917},
                            {"noc.req_hol_blocked", 5794},
                            {"noc.resp_flits", 9917},
                            {"noc.resp_hol_blocked", 3187},
                        }},
        RemoteHeavyCase{5, 41264, 3'635,
                        {
                            {"bank.accesses", 13178},
                            {"bank.conflict_wait_cycles", 3010},
                            {"bank.conflicts", 2934},
                            {"bank.reads", 4714},
                            {"bank.writes", 10016},
                            {"core.instret", 19756},
                            {"core.mac_ops", 0},
                            {"core.mem_ops", 13179},
                            {"core.stall_fence", 114},
                            {"core.stall_fetch", 497},
                            {"core.stall_flush", 942},
                            {"core.stall_lsu_full", 16638},
                            {"core.stall_port_busy", 6791},
                            {"core.stall_raw", 4576},
                            {"core.wfi_cycles", 8846},
                            {"cycles", 3635},
                            {"dma.busy_cycles", 0},
                            {"dma.bytes", 0},
                            {"dma.descriptors", 0},
                            {"dma.queue_full_stall_cycles", 0},
                            {"dma.retired", 0},
                            {"dma.retired_reads", 0},
                            {"dma.status_reads", 0},
                            {"dma.wakes", 0},
                            {"dma.wakes_suppressed", 0},
                            {"gmem.bulk_bytes", 0},
                            {"gmem.bulk_demand_cycles", 0},
                            {"gmem.bulk_stall_cycles", 0},
                            {"gmem.busy_cycles", 82},
                            {"gmem.bytes", 1312},
                            {"gmem.requests", 41},
                            {"gmem.scalar_bytes", 1312},
                            {"gmem.scalar_stall_cycles", 0},
                            {"icache.hits", 47875},
                            {"icache.misses", 41},
                            {"noc.global_hops", 0},
                            {"noc.local_hops", 19780},
                            {"noc.req_flits", 9890},
                            {"noc.req_hol_blocked", 8879},
                            {"noc.resp_flits", 9890},
                            {"noc.resp_hol_blocked", 11349},
                        }},
        RemoteHeavyCase{32, 41264, 3'632,
                        {
                            {"bank.accesses", 13150},
                            {"bank.conflict_wait_cycles", 2965},
                            {"bank.conflicts", 2894},
                            {"bank.reads", 4686},
                            {"bank.writes", 10016},
                            {"core.instret", 19700},
                            {"core.mac_ops", 0},
                            {"core.mem_ops", 13151},
                            {"core.stall_fence", 239},
                            {"core.stall_fetch", 468},
                            {"core.stall_flush", 886},
                            {"core.stall_lsu_full", 0},
                            {"core.stall_port_busy", 4924},
                            {"core.stall_raw", 23726},
                            {"core.wfi_cycles", 8169},
                            {"cycles", 3632},
                            {"dma.busy_cycles", 0},
                            {"dma.bytes", 0},
                            {"dma.descriptors", 0},
                            {"dma.queue_full_stall_cycles", 0},
                            {"dma.retired", 0},
                            {"dma.retired_reads", 0},
                            {"dma.status_reads", 0},
                            {"dma.wakes", 0},
                            {"dma.wakes_suppressed", 0},
                            {"gmem.bulk_bytes", 0},
                            {"gmem.bulk_demand_cycles", 0},
                            {"gmem.bulk_stall_cycles", 0},
                            {"gmem.busy_cycles", 82},
                            {"gmem.bytes", 1312},
                            {"gmem.requests", 41},
                            {"gmem.scalar_bytes", 1312},
                            {"gmem.scalar_stall_cycles", 0},
                            {"icache.hits", 48589},
                            {"icache.misses", 41},
                            {"noc.global_hops", 0},
                            {"noc.local_hops", 19724},
                            {"noc.req_flits", 9862},
                            {"noc.req_hol_blocked", 9104},
                            {"noc.resp_flits", 9862},
                            {"noc.resp_hol_blocked", 11644},
                        }}),
    [](const auto& info) { return "lsu" + std::to_string(info.param.lsu_max_outstanding); });

// Every core is charged exactly one outcome per cycle, and every fetch
// that hits retires or stalls on an operand, a full LSU, a busy port or a
// fence. The golden tables above pin only end-of-run totals; these
// identities must also hold inside every telemetry window, so a stall
// charged late (at the cycle it ends instead of each cycle it lasts) fails
// here.
TEST(GoldenCounters, Matmul4MiBConservesCoreCyclesInEveryWindow) {
  constexpr u32 kWindow = 256;
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(4));
  cfg.gmem_bytes_per_cycle = 16;
  cfg.telemetry.sample_window = kWindow;
  kernels::MatmulParams params;
  params.m = 64;
  params.t = 32;
  arch::Cluster cluster(cfg);
  const arch::RunResult result = kernels::run_kernel(
      cluster, kernels::build_matmul(cfg, params), 10'000'000, /*warm_icache=*/true);
  ASSERT_EQ(result.cycles, 19'592U);
  ASSERT_NE(cluster.telemetry(), nullptr);
  const obs::Timeline* timeline = cluster.telemetry()->timeline();
  ASSERT_NE(timeline, nullptr);
  const auto& windows = timeline->windows();
  ASSERT_EQ(windows.size(), 77U);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const auto d = [&](const char* name) { return timeline->delta(i, name); };
    const u64 fetch_outcomes = d("core.instret") + d("core.stall_raw") +
                               d("core.stall_lsu_full") + d("core.stall_port_busy") +
                               d("core.stall_fence");
    EXPECT_EQ(d("icache.hits"), fetch_outcomes);
    // Cycle 0 is the reset state; the first stepped cycle is 1.
    const u64 stepped = windows[i].cycle_hi - windows[i].cycle_lo + 1 -
                        (windows[i].cycle_lo == 0 ? 1 : 0);
    const u64 core_cycles = fetch_outcomes + d("core.stall_fetch") +
                            d("core.stall_flush") + d("core.wfi_cycles");
    EXPECT_EQ(core_cycles, u64{cfg.num_cores()} * stepped);
  }
}

}  // namespace
}  // namespace mp3d
