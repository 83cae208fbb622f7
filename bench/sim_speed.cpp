// SPDX-License-Identifier: Apache-2.0
// Simulator-throughput benchmark and host-profiling harness: how fast does
// the simulator itself run, and where does Cluster::step's wall clock go?
//
// Workload mix (one scenario each):
//   - speed/matmul_dma:   DMA-staged matmul on the mini cluster, host
//                         profiling on (the component-breakdown source)
//   - speed/prof_overhead: profiling-off vs profiling-on wall clock
//   - speed/prof_identical: profiling-on counters bit-identical to off
//   - speed/wfi_dma_staged: wfi-heavy DMA-staged kernel under a slow
//                         off-chip channel, fast-forward off vs on
//   - speed/wfi_soak:     all-asleep DMA ping-pong soak, fast-forward
//                         off vs on (the idle-cycle fast-forward showcase)
//
// Host speed itself is gated end to end by bench/e2e (bench/perf_ab.py).
//
// Gates: the profiler's phase breakdown covers >= 90 % of measured step
// time; profiling-on overhead stays under 10 % (wall-clock gates skip
// under --smoke and sanitizers); profiling never perturbs simulation
// counters; fast-forward is bit-identical and >= 3x faster on the wfi
// workloads.
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "arch/cluster.hpp"
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "isa/assembler.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "prof/export.hpp"
#include "prof/profile.hpp"

using namespace mp3d;

namespace {

using Clock = std::chrono::steady_clock;

constexpr u32 kProfStride = 64;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Full runs time the best of 5 reps per side: the wall-clock gates must
// compare true simulator speed, not scheduler noise on a shared CI box.
int reps_for(bool smoke) { return smoke ? 1 : 5; }

/// The profile exported by finalize(): the matmul_dma workload's
/// breakdown (scenarios may run on worker threads, hence the lock).
std::mutex g_profile_mutex;
prof::ProfileReport g_profile;
bool g_have_profile = false;

arch::ClusterConfig speed_config() {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.profiling.stride = kProfStride;
  cfg.validate();
  return cfg;
}

kernels::Kernel speed_kernel(const arch::ClusterConfig& cfg, bool smoke) {
  kernels::MatmulParams p;
  p.m = smoke ? 32 : 64;
  p.t = 16;
  return kernels::build_matmul_dma(cfg, p);
}

void record_breakdown(exp::ScenarioOutput& out, const prof::ProfileReport& rep) {
  for (std::size_t ph = 0; ph < prof::kNumPhases; ++ph) {
    out.metric(std::string("prof.") +
                   prof::phase_name(static_cast<prof::Phase>(ph)),
               rep.phase_frac(static_cast<prof::Phase>(ph)));
  }
  out.metric("prof.coverage", rep.coverage());
  out.metric("prof.est_step_ms", rep.est_step_ms());
  out.metric("prof.sampled_cycles", static_cast<double>(rep.sampled_cycles));
}

/// Run the profiled matmul once and export its phase breakdown.
exp::ScenarioOutput run_matmul_dma(bool smoke) {
  const arch::ClusterConfig cfg = speed_config();
  arch::Cluster cluster(cfg);
  const arch::RunResult result =
      kernels::run_kernel(cluster, speed_kernel(cfg, smoke), 100'000'000);
  exp::ScenarioOutput out;
  out.sim(result.cycles);
  out.metric("cycles", static_cast<double>(result.cycles));
  const prof::ProfileReport rep = cluster.profiler()->report();
  record_breakdown(out, rep);
  {
    const std::lock_guard<std::mutex> lock(g_profile_mutex);
    g_profile = rep;
    g_have_profile = true;
  }
  exp::Row row;
  row.cell("workload", std::string("matmul_dma")).cell("cycles", result.cycles);
  out.row(std::move(row));
  return out;
}

exp::ScenarioOutput run_prof_overhead(bool smoke) {
  arch::ClusterConfig off = speed_config();
  off.profiling.stride = 0;
  const arch::ClusterConfig on = speed_config();
  const kernels::Kernel kernel = speed_kernel(off, smoke);
  // Interleave off/on reps so transient host load hits both sides alike;
  // min-of-N then converges to each side's true wall clock.
  arch::Cluster cluster_off(off);
  arch::Cluster cluster_on(on);
  double wall_off = 1e300;
  double wall_on = 1e300;
  exp::ScenarioOutput out;
  for (int i = 0; i < reps_for(smoke); ++i) {
    auto start = Clock::now();
    out.sim(kernels::run_kernel(cluster_off, kernel, 100'000'000).cycles);
    wall_off = std::min(wall_off, ms_since(start));
    start = Clock::now();
    out.sim(kernels::run_kernel(cluster_on, kernel, 100'000'000).cycles);
    wall_on = std::min(wall_on, ms_since(start));
  }
  out.metric("wall_off_ms", wall_off)
      .metric("wall_on_ms", wall_on)
      .metric("overhead", wall_off > 0.0 ? wall_on / wall_off - 1.0 : 0.0);
  return out;
}

exp::ScenarioOutput run_prof_identical(bool smoke) {
  arch::ClusterConfig off_cfg = speed_config();
  off_cfg.profiling.stride = 0;
  const arch::ClusterConfig on_cfg = speed_config();
  const kernels::Kernel kernel = speed_kernel(off_cfg, smoke);
  const auto run_one = [&](const arch::ClusterConfig& cfg) {
    arch::Cluster cluster(cfg);
    return kernels::run_kernel(cluster, kernel, 100'000'000);
  };
  const arch::RunResult off = run_one(off_cfg);
  const arch::RunResult on = run_one(on_cfg);
  exp::ScenarioOutput out;
  out.sim(off.cycles + on.cycles);
  out.metric("identical",
             (off.cycles == on.cycles && off.counters == on.counters) ? 1.0 : 0.0)
      .metric("cycles", static_cast<double>(off.cycles));
  return out;
}

// ---- idle-cycle fast-forward contrast workloads ----------------------------
//
// Both run the same workload twice — ClusterConfig::fast_forward off, then
// on — interleaved min-of-N like prof_overhead, and verify the two runs are
// bit-identical (cycles + counters) before reporting the speedup. When the
// MP3D_FAST_FORWARD env var is set (CI's A/B runs force both paths one
// way), the contrast is meaningless: the scenarios report env_forced=1 and
// the fast-forward gates skip.

bool ff_env_forced() { return std::getenv("MP3D_FAST_FORWARD") != nullptr; }

struct FfContrast {
  double wall_off_ms = 1e300;
  double wall_on_ms = 1e300;
  u64 cycles = 0;      ///< one off run plus one on run
  u64 sim_cycles = 0;  ///< every rep's off and on runs
  bool identical = false;
};

exp::ScenarioOutput ff_contrast_output(const FfContrast& c) {
  exp::ScenarioOutput out;
  out.sim(c.sim_cycles);
  out.metric("wall_off_ms", c.wall_off_ms)
      .metric("wall_on_ms", c.wall_on_ms)
      .metric("speedup", c.wall_on_ms > 0.0 ? c.wall_off_ms / c.wall_on_ms : 0.0)
      .metric("identical", c.identical ? 1.0 : 0.0)
      .metric("env_forced", ff_env_forced() ? 1.0 : 0.0)
      .metric("cycles", static_cast<double>(c.cycles));
  return out;
}

/// DMA-staged AXPY on a far-memory-class channel (latency 256 Ki cycles,
/// think host-paged or CXL-attached backing store): the transfer wait
/// dwarfs each chunk's compute, so the group leaders sleep on DMA
/// completions and every other core sleeps at the chunk barriers with
/// nothing left to overlap — ~99% of the run is a fully idle latency
/// window. Icaches are pre-warmed: a cold fetch miss stalls its core
/// *awake* for a full off-chip round trip, which would serialize the run
/// behind refills and measure the icache, not the fast-forward engine.
exp::ScenarioOutput run_wfi_dma_staged(bool smoke) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.gmem_latency = 262144;
  cfg.validate();
  const kernels::Kernel kernel = kernels::build_axpy_staged(
      cfg, smoke ? 512U : 4096U, 3, /*use_dma=*/true);
  FfContrast c;
  arch::ClusterConfig off_cfg = cfg;
  off_cfg.fast_forward = false;
  arch::Cluster cluster_off(off_cfg);
  arch::Cluster cluster_on(cfg);
  arch::RunResult off;
  arch::RunResult on;
  for (int i = 0; i < reps_for(smoke); ++i) {
    auto start = Clock::now();
    off = kernels::run_kernel(cluster_off, kernel, 100'000'000,
                              /*warm_icache=*/true);
    c.wall_off_ms = std::min(c.wall_off_ms, ms_since(start));
    start = Clock::now();
    on = kernels::run_kernel(cluster_on, kernel, 100'000'000,
                             /*warm_icache=*/true);
    c.wall_on_ms = std::min(c.wall_on_ms, ms_since(start));
    c.sim_cycles += off.cycles + on.cycles;
  }
  c.cycles = off.cycles + on.cycles;
  c.identical = off.cycles == on.cycles && off.counters == on.counters;
  return ff_contrast_output(c);
}

/// All-asleep soak: core 0 ping-pongs tiny DMA transfers against a
/// high-latency channel and sleeps until each completion wake; every other
/// core parks in wfi. Nearly the entire run is a fully idle latency window
/// — the span the fast-forward engine exists to skip.
exp::ScenarioOutput run_wfi_soak(bool smoke) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.gmem_latency = 512;
  cfg.validate();
  const u32 rounds = smoke ? 100 : 5'000;
  const auto reg = [&](u32 offset) {
    return std::to_string(cfg.ctrl_base + offset);
  };
  const std::string src = std::string(".equ EOC, ") + reg(arch::ctrl::kEoc) +
                          "\n.equ DMA_SRC, " + reg(arch::ctrl::kDmaSrc) +
                          "\n.equ DMA_DST, " + reg(arch::ctrl::kDmaDst) +
                          "\n.equ DMA_LEN, " + reg(arch::ctrl::kDmaLen) +
                          "\n.equ DMA_ROWS, " + reg(arch::ctrl::kDmaRows) +
                          "\n.equ DMA_STRIDE, " + reg(arch::ctrl::kDmaStride) +
                          "\n.equ DMA_WAKE, " + reg(arch::ctrl::kDmaWake) +
                          "\n.equ DMA_START, " + reg(arch::ctrl::kDmaStart) +
                          "\n.equ DMA_STATUS, " + reg(arch::ctrl::kDmaStatus) +
                          "\n.equ ROUNDS, " + std::to_string(rounds) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    # Stage a small gmem -> SPM descriptor once; restart it every round.
    li t0, DMA_SRC
    li t1, 0x80100000
    sw t1, 0(t0)
    li t0, DMA_DST
    li t1, 0x2000
    sw t1, 0(t0)
    li t0, DMA_LEN
    li t1, 64
    sw t1, 0(t0)
    li t0, DMA_ROWS
    li t1, 1
    sw t1, 0(t0)
    li t0, DMA_STRIDE
    li t1, 64
    sw t1, 0(t0)
    li t0, DMA_WAKE
    sw zero, 0(t0)            # wake core 0 on completion
    li s2, ROUNDS
round:
    li t0, DMA_START
    sw zero, 0(t0)
    li t0, DMA_STATUS
wait:
    lw t1, 0(t0)              # nonzero read arms the completion wake
    beqz t1, next
    wfi                       # everyone asleep: the latency window is idle
    j wait
next:
    addi s2, s2, -1
    bnez s2, round
    li a0, 0
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  isa::AsmOptions asm_options;
  asm_options.default_base = cfg.gmem_base;
  const isa::Program program = isa::assemble(src, asm_options);
  FfContrast c;
  arch::ClusterConfig off_cfg = cfg;
  off_cfg.fast_forward = false;
  arch::Cluster cluster_off(off_cfg);
  arch::Cluster cluster_on(cfg);
  arch::RunResult off;
  arch::RunResult on;
  const auto run_one = [&](arch::Cluster& cluster) {
    cluster.load_program(program);
    return cluster.run(100'000'000);
  };
  for (int i = 0; i < reps_for(smoke); ++i) {
    auto start = Clock::now();
    off = run_one(cluster_off);
    c.wall_off_ms = std::min(c.wall_off_ms, ms_since(start));
    start = Clock::now();
    on = run_one(cluster_on);
    c.wall_on_ms = std::min(c.wall_on_ms, ms_since(start));
    c.sim_cycles += off.cycles + on.cycles;
  }
  if (!off.eoc || !on.eoc) {
    throw std::runtime_error("wfi_soak did not reach EOC");
  }
  c.cycles = off.cycles + on.cycles;
  c.identical = off.cycles == on.cycles && off.counters == on.counters;
  return ff_contrast_output(c);
}

exp::Suite make_suite(const exp::CliOptions& options) {
  const bool smoke = options.smoke;
  exp::Suite suite;
  suite.name = "sim_speed";
  suite.title = "Simulator throughput and host-profiling harness";

  exp::Scenario s1;
  s1.name = "speed/matmul_dma";
  s1.description = "DMA-staged matmul, host profiling on (breakdown source)";
  s1.run = [smoke] { return run_matmul_dma(smoke); };
  suite.registry.add(std::move(s1));

  exp::Scenario s2;
  s2.name = "speed/prof_overhead";
  s2.description = "profiling-off vs profiling-on wall clock (min-of-N)";
  s2.run = [smoke] { return run_prof_overhead(smoke); };
  suite.registry.add(std::move(s2));

  exp::Scenario s3;
  s3.name = "speed/prof_identical";
  s3.description = "profiling never perturbs simulation counters";
  s3.run = [smoke] { return run_prof_identical(smoke); };
  suite.registry.add(std::move(s3));

  exp::Scenario s4;
  s4.name = "speed/wfi_dma_staged";
  s4.description = "wfi-heavy DMA-staged kernel, fast-forward off vs on";
  s4.run = [smoke] { return run_wfi_dma_staged(smoke); };
  suite.registry.add(std::move(s4));

  exp::Scenario s5;
  s5.name = "speed/wfi_soak";
  s5.description = "all-asleep DMA ping-pong soak, fast-forward off vs on";
  s5.run = [smoke] { return run_wfi_soak(smoke); };
  suite.registry.add(std::move(s5));

  suite.gate("profiling never perturbs the simulation (bit-identical counters)",
             [](const exp::SweepReport& report) {
               const auto identical =
                   report.metric("speed/prof_identical", "identical");
               if (!identical) {
                 return std::string("speed/prof_identical did not run");
               }
               if (*identical != 1.0) {
                 return std::string(
                     "counters diverged with host profiling enabled");
               }
               return std::string();
             });

  suite.gate("fast-forward is bit-identical on the wfi workloads",
             [](const exp::SweepReport& report) {
               for (const char* name : {"speed/wfi_dma_staged", "speed/wfi_soak"}) {
                 const auto identical = report.metric(name, "identical");
                 if (!identical) {
                   return std::string(name) + " did not run";
                 }
                 if (*identical != 1.0) {
                   return std::string(name) +
                          ": counters diverged with fast-forward on";
                 }
               }
               return std::string();
             });

  suite.gate("fast-forward delivers >= 3x host throughput on wfi workloads",
             [smoke](const exp::SweepReport& report) {
               if (smoke || bench::sanitizers_active()) {
                 // Wall-clock gate: needs a release-like build and a
                 // workload long enough to time.
                 return std::string();
               }
               if (ff_env_forced()) {
                 // MP3D_FAST_FORWARD pins both runs to one path; there is
                 // no contrast to measure (CI's A/B sweeps do this).
                 return std::string();
               }
               for (const char* name : {"speed/wfi_dma_staged", "speed/wfi_soak"}) {
                 const auto speedup = report.metric(name, "speedup");
                 if (!speedup) {
                   return std::string(name) + " did not run";
                 }
                 if (*speedup < 3.0) {
                   return std::string(name) + " speedup " +
                          fmt_norm(*speedup, 2) + "x below the 3x floor";
                 }
               }
               return std::string();
             });

  suite.gate("phase breakdown covers >= 90 % of measured step time",
             [smoke](const exp::SweepReport& report) {
               if (smoke) {
                 // A smoke run samples too few cycles for the ratio to be
                 // meaningful on coarse clocks.
                 return std::string();
               }
               const auto coverage =
                   report.metric("speed/matmul_dma", "prof.coverage");
               if (!coverage) {
                 return std::string("speed/matmul_dma reported no profile");
               }
               if (*coverage < 0.9) {
                 return "profile coverage " + fmt_norm(*coverage, 3) +
                        " below 0.9 (lost marks or timer overhead)";
               }
               return std::string();
             });

  suite.gate("profiling-on wall clock within 10 % of profiling-off",
             [smoke](const exp::SweepReport& report) {
               if (smoke || bench::sanitizers_active()) {
                 // Wall-clock gates need a release-like build and a
                 // workload long enough to time.
                 return std::string();
               }
               const auto off =
                   report.metric("speed/prof_overhead", "wall_off_ms");
               const auto on = report.metric("speed/prof_overhead", "wall_on_ms");
               if (!off || !on) {
                 return std::string("speed/prof_overhead did not run");
               }
               const double bound = *off * 1.10 + 2.0;
               if (*on > bound) {
                 return "profiling-on " + fmt_norm(*on, 2) + " ms exceeds " +
                        fmt_norm(bound, 2) + " ms (off: " + fmt_norm(*off, 2) +
                        " ms)";
               }
               return std::string();
             });

  suite.finalize = [](const exp::SweepReport&) {
    const std::lock_guard<std::mutex> lock(g_profile_mutex);
    if (!g_have_profile) {
      return;
    }
    const std::string dir = bench::out_dir();
    const std::string collapsed = dir + "/sim_speed_profile.collapsed";
    const std::string speedscope = dir + "/sim_speed_profile.speedscope.json";
    std::string err =
        exp::write_text_file(collapsed, prof::to_collapsed(g_profile));
    if (err.empty()) {
      err = exp::write_text_file(
          speedscope, prof::to_speedscope(g_profile, "sim_speed matmul_dma"));
    }
    if (err.empty()) {
      std::printf("[profile written to %s and %s]\n", collapsed.c_str(),
                  speedscope.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", err.c_str());
    }
  };

  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
