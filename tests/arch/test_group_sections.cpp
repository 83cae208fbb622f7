// SPDX-License-Identifier: Apache-2.0
// A cluster steps its groups' sections on up to min(groups, host-thread
// budget) host threads. The results must not depend on how many: every
// program here runs at budgets 1, 2, 3 and 4 (3 splits four groups
// unevenly), and the RunResult — cycles, every counter, markers, console,
// core errors — the final SPM and global-memory words and any telemetry
// must equal the one-thread run's, with or without the step profiler.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "arch/cluster.hpp"
#include "exp/row.hpp"
#include "exp/runner.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/telemetry.hpp"
#include "sim/fork_join.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::random_barrier_program;

/// Four groups of two tiles of four cores: every network, a section per
/// host thread, and cheap enough for the sanitizer builds.
ClusterConfig four_small_groups() {
  ClusterConfig cfg = ClusterConfig::mini(KiB(256));
  cfg.num_groups = 4;
  cfg.tiles_per_group = 2;
  cfg.validate();
  return cfg;
}

/// Everything a run leaves behind that a test can observe.
struct Outcome {
  RunResult result;
  std::vector<u32> spm;
  std::vector<u32> gmem;
  std::string timeline;
  std::string trace;
};

/// Restores the calling thread's host-thread budget on scope exit.
class BudgetScope {
 public:
  explicit BudgetScope(u32 budget) : saved_(sim::host_thread_budget()) {
    sim::set_host_thread_budget(budget);
  }
  ~BudgetScope() { sim::set_host_thread_budget(saved_); }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  u32 saved_;
};

/// Load `program`, let `init` write its inputs, run, and read back every
/// SPM word and the first `gmem_words` words of global memory.
template <typename Init>
Outcome run_once(const ClusterConfig& cfg, const isa::Program& program, Init&& init,
                 u64 max_cycles, std::size_t gmem_words, bool warm) {
  Cluster cluster(cfg);
  cluster.load_program(program);
  init(cluster);
  if (warm) {
    cluster.warm_icaches();
  }
  Outcome out;
  out.result = cluster.run(max_cycles);
  out.spm = cluster.read_words(cfg.spm_base, cfg.spm_capacity / 4);
  out.gmem = cluster.read_words(cfg.gmem_base, gmem_words);
  if (const obs::Telemetry* telemetry = cluster.telemetry()) {
    if (telemetry->timeline() != nullptr) {
      out.timeline = exp::rows_to_csv(telemetry->timeline()->to_rows("run"));
    }
    if (telemetry->trace() != nullptr) {
      out.trace = obs::to_chrome_json(*telemetry->trace());
    }
  }
  return out;
}

void expect_same(const Outcome& got, const Outcome& want) {
  const RunResult& a = got.result;
  const RunResult& b = want.result;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.eoc, b.eoc);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.hit_max_cycles, b.hit_max_cycles);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.core_exit_codes, b.core_exit_codes);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_EQ(a.markers.size(), b.markers.size());
  for (std::size_t i = 0; i < a.markers.size(); ++i) {
    EXPECT_EQ(a.markers[i].id, b.markers[i].id);
    EXPECT_EQ(a.markers[i].core, b.markers[i].core);
    EXPECT_EQ(a.markers[i].cycle, b.markers[i].cycle);
  }
  EXPECT_EQ(a.console, b.console);
  EXPECT_EQ(a.core_errors, b.core_errors);
  EXPECT_TRUE(got.spm == want.spm) << "final SPM words differ";
  EXPECT_TRUE(got.gmem == want.gmem) << "final global-memory words differ";
  EXPECT_EQ(got.timeline, want.timeline);
  EXPECT_EQ(got.trace, want.trace);
}

/// Run at budgets 1..4 and compare each with budget 1; returns budget 1's.
template <typename Init>
Outcome expect_budget_independent(const ClusterConfig& cfg, const isa::Program& program,
                                  Init&& init, u64 max_cycles = 2'000'000,
                                  std::size_t gmem_words = 1U << 19, bool warm = true) {
  Outcome first;
  for (u32 budget = 1; budget <= 4; ++budget) {
    SCOPED_TRACE("host-thread budget " + std::to_string(budget));
    const BudgetScope scope(budget);
    Outcome out = run_once(cfg, program, init, max_cycles, gmem_words, warm);
    if (budget == 1) {
      first = std::move(out);
    } else {
      expect_same(out, first);
    }
  }
  return first;
}

Outcome expect_budget_independent(const ClusterConfig& cfg, const kernels::Kernel& kernel,
                                  u64 max_cycles = 5'000'000) {
  const Outcome first = expect_budget_independent(cfg, kernel.program, kernel.init, max_cycles);
  EXPECT_TRUE(first.result.ok());
  return first;
}

isa::Program assemble(const ClusterConfig& cfg, const std::string& source) {
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  return isa::assemble(source, options);
}

void no_init(Cluster& /*cluster*/) {}

TEST(GroupSections, RandomBarrierProgramsDoNotDependOnTheThreadCount) {
  Prng prng(0x5EC7105ULL);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const ClusterConfig cfg = four_small_groups();
    const Outcome first = expect_budget_independent(
        cfg, assemble(cfg, random_barrier_program(cfg, prng)), no_init);
    EXPECT_TRUE(first.result.eoc);
    EXPECT_EQ(first.result.exit_code % cfg.num_cores(), 0U);
  }
}

TEST(GroupSections, KernelsDoNotDependOnTheThreadCount) {
  const ClusterConfig cfg = four_small_groups();
  kernels::MatmulParams params;
  params.m = 32;
  params.t = 16;
  expect_budget_independent(cfg, kernels::build_matmul(cfg, params, 3));
  expect_budget_independent(cfg, kernels::build_matmul_dma(cfg, params, 4));
  expect_budget_independent(cfg, kernels::build_axpy_staged(cfg, 1024, 3, /*use_dma=*/true,
                                                             /*chunk=*/0, /*seed=*/5,
                                                             /*markers=*/true));
  expect_budget_independent(cfg, kernels::build_memcpy_dma(cfg, 2048, 2, 6));
}

TEST(GroupSections, PaperClusterMatmulDoesNotDependOnTheThreadCount) {
  const ClusterConfig cfg = ClusterConfig::mempool(MiB(1));
  kernels::MatmulParams params;
  params.m = 64;
  params.t = 32;
  expect_budget_independent(cfg, kernels::build_matmul(cfg, params, 8));
}

TEST(GroupSections, TheWidestMailboxesDoNotDependOnTheThreadCount) {
  // Eight-entry port queues: a group may push 16 flits to another in a
  // cycle, the most its mailboxes hold.
  ClusterConfig cfg = four_small_groups();
  cfg.port_queue_depth = 8;
  Prng prng(0x8D8ULL);
  const Outcome first = expect_budget_independent(
      cfg, assemble(cfg, random_barrier_program(cfg, prng)), no_init);
  EXPECT_TRUE(first.result.eoc);
  kernels::MatmulParams params;
  params.m = 32;
  params.t = 16;
  expect_budget_independent(cfg, kernels::build_matmul(cfg, params, 10));
}

TEST(GroupSections, LrScAcrossGroupsDoesNotDependOnTheThreadCount) {
  // One counter in each group's banks. Every core adds to them in turn
  // with lr.w/sc.w loops, so reservations are taken and broken across
  // groups and banks of several groups serve LR/SC ops in one cycle; the
  // sums must be exact.
  const ClusterConfig cfg = four_small_groups();
  const Cluster probe(cfg);
  std::string counters;
  for (u32 g = 0; g < cfg.num_groups; ++g) {
    // Interleaved word w lives in global bank w mod banks, so this word
    // is in the first bank of group g's first tile.
    const u32 word = g * cfg.tiles_per_group * cfg.banks_per_tile;
    counters += (g == 0 ? "" : ", ") + std::to_string(probe.addr_map().interleaved_addr(word));
  }
  const std::string done = std::to_string(probe.addr_map().interleaved_addr(1));
  const std::string source = ctrl_prelude(cfg) + R"(
.equ DONE, )" + done + R"(
.text 0x80000000
_start:
    csrr s0, mhartid
    li s1, NUM_CORES
    lw s1, 0(s1)
    li s2, 0
next_counter:
    add t0, s0, s2
    andi t0, t0, 3
    slli t0, t0, 2
    la t1, counters
    add t1, t1, t0
    lw t1, 0(t1)
add_one:
    lr.w t2, (t1)
    addi t2, t2, 1
    sc.w t3, t2, (t1)
    bnez t3, add_one
    addi s2, s2, 1
    li t0, 6
    blt s2, t0, next_counter
    li t4, DONE
    li t5, 1
    amoadd.w zero, t5, (t4)
    bnez s0, park
wait:
    lw t6, 0(t4)
    bne t6, s1, wait
    la t1, counters
    li a0, 0
    li s3, 4
sum:
    lw t2, 0(t1)
    lw t2, 0(t2)
    add a0, a0, t2
    addi t1, t1, 4
    addi s3, s3, -1
    bnez s3, sum
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
.data 0x80010000
counters:
    .word )" + counters + "\n";
  const Outcome first = expect_budget_independent(cfg, assemble(cfg, source), no_init);
  EXPECT_TRUE(first.result.eoc);
  EXPECT_EQ(first.result.exit_code, cfg.num_cores() * 6);
}

TEST(GroupSections, AFaultingCoreDoesNotDependOnTheThreadCount) {
  // Core 9 (group 1) loads from an unmapped address while the others
  // store to their own words and sleep; the run ends at the watchdog.
  const ClusterConfig cfg = four_small_groups();
  const std::string source = ctrl_prelude(cfg) + R"(
.equ BASE, 0x4000
.text 0x80000000
_start:
    csrr s0, mhartid
    li t1, 9
    bne s0, t1, work
    li t2, 0x60000000
    lw t3, 0(t2)
work:
    slli t4, s0, 2
    li t5, BASE
    add t5, t5, t4
    sw s0, 0(t5)
park:
    wfi
    j park
)";
  const Outcome first = expect_budget_independent(cfg, assemble(cfg, source), no_init, 100'000);
  EXPECT_FALSE(first.result.core_errors[9].empty());
}

TEST(GroupSections, ColdIcachesDoNotDependOnTheThreadCount) {
  // Small instruction caches, not warmed: every group's tiles refill
  // through global memory, and the refills land in issue order.
  ClusterConfig cfg = four_small_groups();
  cfg.icache_size = 128;
  cfg.icache_line = 16;
  Prng prng(0xC01DULL);
  const Outcome first =
      expect_budget_independent(cfg, assemble(cfg, random_barrier_program(cfg, prng)), no_init,
                                2'000'000, 1U << 19, /*warm=*/false);
  EXPECT_TRUE(first.result.eoc);
  EXPECT_GT(first.result.counters.get("icache.misses"), 0U);
}

TEST(GroupSections, TelemetryAndTraceDoNotDependOnTheThreadCount) {
  ClusterConfig cfg = four_small_groups();
  cfg.telemetry.sample_window = 128;
  Prng prng(0x7E1EULL);
  const std::string source = random_barrier_program(cfg, prng);
  const Outcome timeline = expect_budget_independent(cfg, assemble(cfg, source), no_init);
  EXPECT_FALSE(timeline.timeline.empty());
  cfg.telemetry.trace = true;
  const Outcome traced = expect_budget_independent(cfg, assemble(cfg, source), no_init);
  EXPECT_FALSE(traced.trace.empty());
}

TEST(GroupSections, ProfiledRunsDoNotDependOnTheThreadCount) {
  // A sampled cycle times each section on the thread that runs it and
  // adds the phases up after the join.
  ClusterConfig cfg = four_small_groups();
  cfg.profiling.stride = 8;
  kernels::MatmulParams params;
  params.m = 32;
  params.t = 16;
  expect_budget_independent(cfg, kernels::build_matmul(cfg, params, 9));
}

TEST(GroupSections, SweepWorkersShareTheCallersBudget) {
  // Each of a sweep's P workers gets budget / P (at least 1) for the
  // clusters its scenarios step.
  std::vector<exp::Scenario> scenarios;
  for (int i = 0; i < 4; ++i) {
    scenarios.push_back({"s" + std::to_string(i), "", [] {
                           exp::ScenarioOutput out;
                           out.metric("budget", sim::host_thread_budget());
                           return out;
                         }});
  }
  const BudgetScope scope(4);
  for (const auto& [jobs, want] : {std::pair{1U, 4.0}, std::pair{2U, 2.0}, std::pair{4U, 1.0}}) {
    exp::RunnerOptions options;
    options.jobs = jobs;
    const exp::SweepReport report = exp::run_sweep(scenarios, options);
    for (const exp::Scenario& scenario : scenarios) {
      EXPECT_EQ(report.metric(scenario.name, "budget"), want) << "jobs " << jobs;
    }
  }
  EXPECT_EQ(sim::host_thread_budget(), 4U);
  sim::set_host_thread_budget(0);
  EXPECT_EQ(sim::host_thread_budget(), 1U);  // below 1 counts as 1
  EXPECT_GE(sim::affinity_cpu_count(), 1U);
}

}  // namespace
}  // namespace mp3d::arch
