// SPDX-License-Identifier: Apache-2.0
// Simulation-driven kernel energy/EDP sweep: {matmul, conv2d, axpy, dotp,
// memcpy} x {core-driven, DMA-staged} x {2D, 3D}. One scenario per
// (kernel, variant) through the experiment engine; each scenario simulates
// its kernel once on its own paper-shape 1 MiB cluster at the paper's
// 8 B/cycle off-chip point (the simulator is flow-agnostic) and costs the
// measured event counters under the 2D and 3D operating points through
// the src/power/ energy model, making efficiency a first-class output of
// every run.
//
// The run doubles as an acceptance gate (exit nonzero on violation):
//   1. every DMA-staged kernel has strictly lower energy AND strictly
//      lower EDP than its core-driven twin, under both flows;
//   2. at equal capacity, 3D beats 2D on on-die energy and EDP for every
//      run (Figure 8/9 direction);
//   3. the core-driven matmul's simulation-derived 3D-over-2D efficiency
//      gain agrees with core::CoExplorer's analytical Figure 8 gain
//      within kEnergyCrossCheckTolerance (the documented tolerance;
//      measured error is ~1 percentage point, see README).
//
// Usage: kernel_energy [--smoke] [--jobs N] [--filter SUBSTR] ...
//   --smoke: smaller workloads, same cluster shape and gates (CTest run).
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/assert.hpp"

#include "bench_util.hpp"
#include "core/coexplore.hpp"
#include "exp/suite.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "power/report.hpp"

using namespace mp3d;

namespace {

using core::kEnergyCrossCheckTolerance;

arch::ClusterConfig bench_cfg() {
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
  cfg.gmem_bytes_per_cycle = 8;  // the paper's representative DDR point
  cfg.validate();
  return cfg;
}

struct Workloads {
  u32 tile;    ///< matmul SPM tile dim
  u32 n;       ///< axpy/dotp/memcpy elements
  u32 chunk;
  u32 conv_h;
  u32 conv_w;
  u32 band;
};

Workloads workloads(bool smoke) {
  Workloads w;
  w.tile = smoke ? 32 : 64;
  w.n = smoke ? 8192 : 16384;
  w.chunk = smoke ? 2048 : 4096;
  w.conv_h = smoke ? 128 : 256;
  w.conv_w = smoke ? 32 : 64;
  w.band = smoke ? 32 : 64;
  return w;
}

/// Build the kernel named by (kernel, variant) on `cfg`. Kernel builders
/// run inside the scenario so every grid point is self-contained.
kernels::Kernel build(const arch::ClusterConfig& cfg, const std::string& kernel,
                      bool dma, const Workloads& w) {
  const std::array<i32, 9> taps = {1, -2, 3, -4, 5, -6, 7, -8, 9};
  if (kernel == "matmul") {
    kernels::MatmulParams mp;
    mp.m = 2 * w.tile;  // two k-chunks per tile: the double-buffer window
    mp.t = w.tile;
    return dma ? kernels::build_matmul_dma(cfg, mp) : kernels::build_matmul(cfg, mp);
  }
  if (kernel == "conv2d") {
    return kernels::build_conv2d_staged(cfg, w.conv_h, w.conv_w, taps, dma, w.band);
  }
  if (kernel == "axpy") {
    return kernels::build_axpy_staged(cfg, w.n, 5, dma, w.chunk);
  }
  if (kernel == "dotp") {
    return kernels::build_dotp_staged(cfg, w.n, dma, w.chunk);
  }
  MP3D_CHECK(kernel == "memcpy", "unknown kernel " << kernel);
  return dma ? kernels::build_memcpy_dma(cfg, w.n) : kernels::build_memcpy(cfg, w.n);
}

std::string point_name(const std::string& kernel, const std::string& variant) {
  return kernel + "/" + variant;
}

exp::Suite make_suite(const exp::CliOptions& opt) {
  const bool smoke = opt.smoke;
  const Workloads w = workloads(smoke);
  const std::vector<std::string> kernel_axis = {"matmul", "conv2d", "axpy", "dotp",
                                                "memcpy"};

  exp::Suite suite;
  suite.name = smoke ? "kernel_energy_smoke" : "kernel_energy";
  suite.title = std::string("simulation-derived kernel energy/EDP") +
                (smoke ? " (smoke)" : "") + " [1 MiB cluster, 8 B/cycle gmem]";

  exp::SweepGrid grid;
  grid.axis("kernel", kernel_axis)
      .axis("variant", std::vector<std::string>{"core", "dma"});
  grid.expand(suite.registry, [w](const exp::SweepPoint& p) {
    const std::string kernel = p.str("kernel");
    const std::string variant = p.str("variant");
    exp::Scenario s;
    s.name = point_name(kernel, variant);
    s.description = variant == "dma" ? "DMA-staged " + kernel + ", costed under 2D/3D"
                                     : "core-driven " + kernel +
                                           ", costed under 2D/3D";
    s.run = [kernel, variant, w]() {
      const arch::ClusterConfig cfg = bench_cfg();
      const power::OperatingPoint op_2d =
          power::make_operating_point(cfg, phys::Flow::k2D);
      const power::OperatingPoint op_3d =
          power::make_operating_point(cfg, phys::Flow::k3D);
      const power::EnergyModel em_2d = power::derive_energy_model(op_2d);
      const power::EnergyModel em_3d = power::derive_energy_model(op_3d);

      arch::Cluster cluster(cfg);
      const kernels::Kernel k = build(cfg, kernel, variant == "dma", w);
      const arch::RunResult result = kernels::run_kernel(cluster, k, 500'000'000,
                                                         true);
      const power::EnergyReport r_2d = power::account(result.counters, em_2d, op_2d);
      const power::EnergyReport r_3d = power::account(result.counters, em_3d, op_3d);

      exp::ScenarioOutput out;
      out.sim(result.cycles);
      out.metric("cycles", static_cast<double>(result.cycles))
          .metric("total_nj_2d", r_2d.total_nj())
          .metric("total_nj_3d", r_3d.total_nj())
          .metric("cluster_nj_2d", r_2d.cluster_nj())
          .metric("cluster_nj_3d", r_3d.cluster_nj())
          .metric("power_mw_2d", r_2d.avg_power_mw())
          .metric("power_mw_3d", r_3d.avg_power_mw())
          .metric("edp_2d", r_2d.edp_nj_us())
          .metric("edp_3d", r_3d.edp_nj_us())
          .metric("cluster_edp_2d", r_2d.cluster_edp_nj_us())
          .metric("cluster_edp_3d", r_3d.cluster_edp_nj_us());
      if (kernel == "matmul" && variant == "core") {
        // Cross-check the core-driven matmul against the analytical
        // Figure 8 gain at the same capacity.
        const core::CoExplorer explorer;
        const core::EnergyCrossCheck check =
            explorer.cross_check_energy(result, cfg);
        out.metric("cross_check_sim_gain", check.sim_gain)
            .metric("cross_check_model_gain", check.model_gain)
            .metric("cross_check_abs_error", check.abs_error());
      }
      for (const power::EnergyReport* r : {&r_2d, &r_3d}) {
        exp::Row row;
        row.cell("kernel", kernel)
            .cell("variant", variant)
            .cell("op", r->op_name)
            .cell("cycles", r->cycles)
            .cell("freq_ghz", r->freq_ghz, 3)
            .cell("runtime_us", r->runtime_ns * 1e-3, 3)
            .cell("total_uj", r->total_nj() * 1e-3, 3)
            .cell("cluster_uj", r->cluster_nj() * 1e-3, 3)
            .cell("power_mw", r->avg_power_mw(), 1)
            .cell("edp_nj_s", r->edp_nj_us() * 1e-6, 4);
        for (const auto& [component, nj] : r->components()) {
          row.cell(component + "_nj", nj, 1);
        }
        out.row(std::move(row));
      }
      return out;
    };
    return s;
  });

  suite.report = [smoke](const exp::SweepReport& report) {
    Table table(std::string("simulation-derived kernel energy/EDP") +
                (smoke ? " (smoke)" : "") + " [1 MiB cluster, 8 B/cycle gmem]");
    table.header({"kernel", "variant", "cycles", "E2D uJ", "E3D uJ", "P2D mW",
                  "P3D mW", "EDP2D nJ*s", "EDP3D nJ*s", "3D eff gain"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty()) {
        continue;
      }
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      const double gain = m("cluster_nj_2d") / m("cluster_nj_3d") - 1.0;
      table.row({r.output.rows[0].get("kernel"), r.output.rows[0].get("variant"),
                 fmt_count(m("cycles")), fmt_fixed(m("total_nj_2d") * 1e-3, 1),
                 fmt_fixed(m("total_nj_3d") * 1e-3, 1),
                 fmt_fixed(m("power_mw_2d"), 0), fmt_fixed(m("power_mw_3d"), 0),
                 fmt_norm(m("edp_2d") * 1e-6, 3), fmt_norm(m("edp_3d") * 1e-6, 3),
                 fmt_pct(gain)});
    }
    std::printf("%s\n", table.to_string().c_str());
    const auto sim = report.metric("matmul/core", "cross_check_sim_gain");
    const auto model = report.metric("matmul/core", "cross_check_model_gain");
    if (sim && model) {
      std::printf("matmul 3D-over-2D efficiency gain: sim %+.1f %%, Fig. 8 model "
                  "%+.1f %% (|err| %.1f pp, tolerance %.0f pp)\n",
                  *sim * 100, *model * 100, std::abs(*sim - *model) * 100,
                  kEnergyCrossCheckTolerance * 100);
    }
  };

  for (const std::string& kernel : kernel_axis) {
    suite.gate("DMA cheaper: " + kernel, [kernel](const exp::SweepReport& report) {
      for (const char* op : {"2d", "3d"}) {
        const auto core_e =
            report.metric(point_name(kernel, "core"), std::string("total_nj_") + op);
        const auto dma_e =
            report.metric(point_name(kernel, "dma"), std::string("total_nj_") + op);
        const auto core_edp =
            report.metric(point_name(kernel, "core"), std::string("edp_") + op);
        const auto dma_edp =
            report.metric(point_name(kernel, "dma"), std::string("edp_") + op);
        if (!core_e || !dma_e || !core_edp || !dma_edp) {
          return kernel + " (" + op + "): scenario did not run";
        }
        if (!(*dma_e < *core_e)) {
          return kernel + " (" + op + "): DMA energy not lower";
        }
        if (!(*dma_edp < *core_edp)) {
          return kernel + " (" + op + "): DMA EDP not lower";
        }
      }
      return std::string();
    });
  }
  suite.gate("3D beats 2D on-die for every run", [](const exp::SweepReport& report) {
    for (const exp::ScenarioResult& r : report.results) {
      const auto e2 = report.metric(r.name, "cluster_nj_2d");
      const auto e3 = report.metric(r.name, "cluster_nj_3d");
      const auto edp2 = report.metric(r.name, "cluster_edp_2d");
      const auto edp3 = report.metric(r.name, "cluster_edp_3d");
      if (!e2 || !e3 || !edp2 || !edp3) {
        return r.name + ": scenario did not run";
      }
      if (!(*e3 < *e2)) {
        return r.name + ": 3D on-die energy not below 2D";
      }
      if (!(*edp3 < *edp2)) {
        return r.name + ": 3D EDP not below 2D";
      }
    }
    return std::string();
  });
  suite.gate("matmul cross-check vs CoExplorer", [](const exp::SweepReport& report) {
    const auto err = report.metric("matmul/core", "cross_check_abs_error");
    if (!err) {
      return std::string("matmul/core did not run");
    }
    if (*err > kEnergyCrossCheckTolerance) {
      return "efficiency gain disagrees with CoExplorer: |err| " +
             fmt_fixed(*err * 100, 1) + " pp";
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
