// SPDX-License-Identifier: Apache-2.0
// Golden counters for the paper-shape cluster: the absolute cycle count and
// every counter of two reference runs on the 4-group, 256-core MemPool.
// The identity gates elsewhere (fast-forward on/off, N=1 System vs a bare
// Cluster, --jobs) compare the simulator against itself, so a rewrite that
// changed, say, the NoC's arbitration order would still pass them. The
// tables were recorded from the simulator before its NoC and bank hot path
// was made allocation-free; a failure names the counter that moved.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "arch/cluster.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/telemetry.hpp"

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
