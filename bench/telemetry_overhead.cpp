// SPDX-License-Identifier: Apache-2.0
// Telemetry overhead guard: observability must never perturb the
// simulation and must stay cheap enough to leave on for real sweeps.
//
// Scenario families:
//   - identical/*: the same workload run telemetry-off and telemetry-on
//     (windowed sampling + event tracing). The on-run's counters must be
//     *bit-identical* — telemetry observes, never steers. Checked on the
//     standalone gmem soak and on a full DMA-staged cluster kernel.
//   - overhead/soak: min-of-N wall-clock for the soak with telemetry off
//     vs on (1024-cycle windows + tracing).
//
// Gates:
//   - every identical/* scenario reports identical == 1;
//   - telemetry-on wall-clock stays within 10 % (plus a small absolute
//     slack for timer noise) of telemetry-off — skipped under --smoke,
//     where the workload is too short to time meaningfully, and in
//     sanitized builds, whose timing bears no relation to release timing.
#include <chrono>

#include "arch/cluster.hpp"
#include "bench_util.hpp"
#include "exp/channel_soak.hpp"
#include "exp/scenarios_gmem.hpp"
#include "exp/suite.hpp"
#include "kernels/simple_kernels.hpp"

using namespace mp3d;

namespace {

arch::TelemetryConfig telemetry_on() {
  arch::TelemetryConfig cfg;
  cfg.sample_window = 1024;
  cfg.trace = true;
  return cfg;
}

/// gmem_arbiter's soak_sat/share=50/bw=4 point, `cycles` long.
exp::ChannelSoakParams soak_params(u64 cycles) {
  return exp::constant_load_soak(4, 50, exp::kSoakSaturatedLoadPct, cycles);
}

bool soak_results_equal(const exp::ChannelSoakResult& a,
                        const exp::ChannelSoakResult& b) {
  return a.scalar_completed == b.scalar_completed &&
         a.scalar_bytes == b.scalar_bytes && a.bulk_bytes == b.bulk_bytes &&
         a.bulk_stall_cycles == b.bulk_stall_cycles &&
         a.scalar_p50 == b.scalar_p50 && a.scalar_p99 == b.scalar_p99;
}

exp::ScenarioOutput run_identical_soak(bool smoke) {
  exp::ChannelSoakParams off = soak_params(smoke ? 20'000 : 100'000);
  exp::ChannelSoakParams on = off;
  on.telemetry = telemetry_on();
  const exp::ChannelSoakResult a = exp::run_channel_soak(off);
  const exp::ChannelSoakResult b = exp::run_channel_soak(on);
  exp::ScenarioOutput out;
  out.sim(2 * off.cycles);
  out.metric("identical", soak_results_equal(a, b) ? 1.0 : 0.0)
      .metric("scalar_completed", static_cast<double>(a.scalar_completed));
  return out;
}

exp::ScenarioOutput run_identical_kernel(bool smoke) {
  const auto run = [smoke](const arch::TelemetryConfig& telemetry) {
    arch::ClusterConfig cfg = arch::ClusterConfig::mini();
    cfg.telemetry = telemetry;
    arch::Cluster cluster(cfg);
    const kernels::Kernel k = kernels::build_axpy_staged(
        cfg, smoke ? 1024 : 4096, 3, /*use_dma=*/true);
    return kernels::run_kernel(cluster, k, 100'000'000);
  };
  const arch::RunResult off = run(arch::TelemetryConfig{});
  const arch::RunResult on = run(telemetry_on());
  exp::ScenarioOutput out;
  out.sim(off.cycles + on.cycles);
  out.metric("identical",
             (off.cycles == on.cycles && off.counters == on.counters) ? 1.0 : 0.0)
      .metric("cycles", static_cast<double>(off.cycles));
  return out;
}

exp::ScenarioOutput run_overhead_soak(bool smoke) {
  using Clock = std::chrono::steady_clock;
  const u64 cycles = smoke ? 50'000 : 500'000;
  const int reps = smoke ? 2 : 5;
  const auto time_one = [&](const exp::ChannelSoakParams& params) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      const auto start = Clock::now();
      exp::run_channel_soak(params);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      best = std::min(best, ms);
    }
    return best;
  };
  exp::ChannelSoakParams off = soak_params(cycles);
  exp::ChannelSoakParams on = off;
  on.telemetry = telemetry_on();
  const double wall_off = time_one(off);
  const double wall_on = time_one(on);
  exp::ScenarioOutput out;
  out.sim(static_cast<u64>(reps) * 2 * cycles);
  out.metric("wall_off_ms", wall_off)
      .metric("wall_on_ms", wall_on)
      .metric("overhead", wall_off > 0.0 ? wall_on / wall_off - 1.0 : 0.0);
  return out;
}

exp::Suite make_suite(const exp::CliOptions& options) {
  const bool smoke = options.smoke;
  exp::Suite suite;
  suite.name = "telemetry_overhead";
  suite.title = "Telemetry perturbation and overhead guard";

  exp::Scenario s1;
  s1.name = "identical/soak";
  s1.description = "gmem soak counters bit-identical with telemetry on";
  s1.run = [smoke] { return run_identical_soak(smoke); };
  suite.registry.add(std::move(s1));

  exp::Scenario s2;
  s2.name = "identical/axpy_dma";
  s2.description = "DMA-staged cluster kernel counters bit-identical with telemetry on";
  s2.run = [smoke] { return run_identical_kernel(smoke); };
  suite.registry.add(std::move(s2));

  exp::Scenario s3;
  s3.name = "overhead/soak";
  s3.description = "wall-clock cost of 1024-cycle windows + tracing on the soak";
  s3.run = [smoke] { return run_overhead_soak(smoke); };
  suite.registry.add(std::move(s3));

  suite.gate("telemetry never perturbs the simulation (bit-identical counters)",
             [](const exp::SweepReport& report) {
               for (const char* name : {"identical/soak", "identical/axpy_dma"}) {
                 const auto identical = report.metric(name, "identical");
                 if (!identical) {
                   return std::string(name) + " did not run";
                 }
                 if (*identical != 1.0) {
                   return std::string(name) +
                          ": counters diverged with telemetry enabled";
                 }
               }
               return std::string();
             });

  suite.gate("telemetry-on wall-clock within 10 % of telemetry-off",
             [smoke](const exp::SweepReport& report) {
               if (smoke) {
                 // Sub-millisecond smoke runs are all timer noise.
                 return std::string();
               }
               if (bench::sanitizers_active()) {
                 // Sanitized builds distort component costs by several x;
                 // only the counters gates are meaningful there.
                 return std::string();
               }
               const auto off = report.metric("overhead/soak", "wall_off_ms");
               const auto on = report.metric("overhead/soak", "wall_on_ms");
               if (!off || !on) {
                 return std::string("overhead/soak did not run");
               }
               const double bound = *off * 1.10 + 2.0;
               if (*on > bound) {
                 return "overhead/soak: telemetry-on " + fmt_norm(*on, 2) +
                        " ms exceeds " + fmt_norm(bound, 2) +
                        " ms (off: " + fmt_norm(*off, 2) + " ms)";
               }
               return std::string();
             });

  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
