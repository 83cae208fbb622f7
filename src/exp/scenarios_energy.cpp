// SPDX-License-Identifier: Apache-2.0
#include "exp/scenarios_energy.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "core/coexplore.hpp"
#include "kernels/matmul.hpp"
#include "phys/paper_ref.hpp"
#include "power/report.hpp"

namespace mp3d::exp {

std::vector<u64> paper_capacities() { return {MiB(1), MiB(2), MiB(4), MiB(8)}; }

std::string energy_scenario_name(u64 capacity) {
  return "cap=" + std::to_string(capacity / MiB(1)) + "MiB";
}

u32 scaled_matmul_tile(u64 capacity, bool smoke) {
  // Paper tiles 256/384/544/800 scaled 4x down and rounded to the
  // simulator's granularity (t % 32 == 0, see MatmulParams::validate);
  // smoke halves them again.
  u32 t = 0;
  switch (capacity / MiB(1)) {
    case 1: t = smoke ? 32 : 64; break;
    case 2: t = smoke ? 64 : 96; break;
    case 4: t = smoke ? 64 : 128; break;
    case 8: t = smoke ? 96 : 192; break;
    default:
      MP3D_CHECK(false, "no scaled workload for capacity " << capacity);
  }
  return t;
}

Scenario make_energy_capacity_scenario(u64 capacity, bool smoke, EnergyFigure figure) {
  Scenario scenario;
  scenario.name = energy_scenario_name(capacity);
  const u32 t = scaled_matmul_tile(capacity, smoke);
  scenario.description = "simulated matmul t=" + std::to_string(t) + " m=" +
                         std::to_string(2 * t) + " on the " +
                         std::to_string(capacity / MiB(1)) +
                         " MiB cluster, costed under the 2D and 3D operating points";
  scenario.run = [capacity, t, figure]() {
    arch::ClusterConfig cfg = arch::ClusterConfig::mempool(capacity);
    cfg.gmem_bytes_per_cycle = 16;  // the paper's representative DDR channel
    cfg.validate();

    kernels::MatmulParams mp;
    mp.m = 2 * t;  // two k-chunks per output tile
    mp.t = t;
    arch::Cluster cluster(cfg);
    const kernels::Kernel kernel = kernels::build_matmul(cfg, mp);
    const arch::RunResult result = kernels::run_kernel(cluster, kernel,
                                                       2'000'000'000, true);

    const power::OperatingPoint op_2d =
        power::make_operating_point(cfg, phys::Flow::k2D);
    const power::OperatingPoint op_3d =
        power::make_operating_point(cfg, phys::Flow::k3D);
    const power::EnergyReport r_2d = power::account(result, op_2d);
    const power::EnergyReport r_3d = power::account(result, op_3d);

    // Analytical references at the same capacity: CoExplorer's Figure 8/9
    // curves plus the paper's own annotations.
    const core::CoExplorer explorer;
    const double model_eff = explorer.gain_3d_over_2d_eff(capacity);
    const double model_edp = explorer.var_3d_over_2d_edp(capacity);
    double paper_eff = 0.0;
    double paper_edp = 0.0;
    for (const auto& ref : phys::paper::figures789()) {
      if (ref.capacity == capacity) {
        paper_eff = ref.eff_gain_3d_over_2d;
        paper_edp = ref.edp_var_3d_over_2d;
      }
    }

    const double sim_eff = r_2d.cluster_nj() / r_3d.cluster_nj() - 1.0;
    const double sim_edp =
        r_3d.cluster_edp_nj_us() / r_2d.cluster_edp_nj_us() - 1.0;
    const double macs =
        static_cast<double>(mp.m) * static_cast<double>(mp.m) * mp.m;

    ScenarioOutput out;
    out.sim(result.cycles);
    out.metric("capacity_mib", static_cast<double>(capacity / MiB(1)))
        .metric("t", t)
        .metric("m", mp.m)
        .metric("macs", macs)
        .metric("cycles", static_cast<double>(result.cycles))
        .metric("freq_2d_ghz", r_2d.freq_ghz)
        .metric("freq_3d_ghz", r_3d.freq_ghz)
        .metric("runtime_us_2d", r_2d.runtime_ns * 1e-3)
        .metric("runtime_us_3d", r_3d.runtime_ns * 1e-3)
        .metric("cluster_uj_2d", r_2d.cluster_nj() * 1e-3)
        .metric("cluster_uj_3d", r_3d.cluster_nj() * 1e-3)
        .metric("total_uj_2d", r_2d.total_nj() * 1e-3)
        .metric("total_uj_3d", r_3d.total_nj() * 1e-3)
        .metric("edp_cluster_2d", r_2d.cluster_edp_nj_us())
        .metric("edp_cluster_3d", r_3d.cluster_edp_nj_us())
        .metric("gain_eff_3d2d_sim", sim_eff)
        .metric("gain_eff_3d2d_model", model_eff)
        .metric("gain_eff_3d2d_paper", paper_eff)
        .metric("var_edp_3d2d_sim", sim_edp)
        .metric("var_edp_3d2d_model", model_edp)
        .metric("var_edp_3d2d_paper", paper_edp);

    const u64 cap_mib = capacity / MiB(1);
    for (const power::EnergyReport* r : {&r_2d, &r_3d}) {
      const bool is_3d = r == &r_3d;
      Row row;
      row.cell("capacity_mib", cap_mib)
          .cell("flow", is_3d ? "3D" : "2D")
          .cell("t", static_cast<u64>(t))
          .cell("m", static_cast<u64>(mp.m))
          .cell("cycles", result.cycles)
          .cell("freq_ghz", r->freq_ghz, 4)
          .cell("runtime_us", r->runtime_ns * 1e-3, 4);
      if (figure == EnergyFigure::kFig8Energy) {
        row.cell("cluster_uj", r->cluster_nj() * 1e-3, 4)
            .cell("total_uj", r->total_nj() * 1e-3, 4)
            .cell("power_mw", r->avg_power_mw(), 1);
        if (is_3d) {
          row.cell("gain_3d_over_2d_sim", sim_eff, 4)
              .cell("gain_3d_over_2d_model", model_eff, 4)
              .cell("gain_3d_over_2d_paper", paper_eff, 4)
              .cell("cross_check_err_pp", std::abs(sim_eff - model_eff) * 100, 2);
        }
      } else {
        row.cell("cluster_uj", r->cluster_nj() * 1e-3, 4)
            .cell("edp_cluster_nj_us", r->cluster_edp_nj_us(), 4);
        if (is_3d) {
          row.cell("var_3d_over_2d_sim", sim_edp, 4)
              .cell("var_3d_over_2d_model", model_edp, 4)
              .cell("var_3d_over_2d_paper", paper_edp, 4)
              .cell("cross_check_err_pp", std::abs(sim_edp - model_edp) * 100, 2);
        }
      }
      out.row(std::move(row));
    }
    return out;
  };
  return scenario;
}

void register_energy_scenarios(Registry& registry, bool smoke, EnergyFigure figure) {
  for (const u64 capacity : paper_capacities()) {
    registry.add(make_energy_capacity_scenario(capacity, smoke, figure));
  }
}

}  // namespace mp3d::exp
