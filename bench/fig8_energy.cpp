// SPDX-License-Identifier: Apache-2.0
// Regenerates Figure 8 — energy-efficiency gain vs SPM capacity — from
// *simulation*: every paper capacity point ({1,2,4,8} MiB) runs the
// capacity-scaled matmul on the cycle-accurate simulator and costs the
// measured event counters under the 2D and 3D operating points through
// src/power/ (the analytical CoExplorer curves are printed alongside as
// the cross-check reference). The paper's Fig. 8 annotations are the
// 3D-over-2D gains at the same capacity (+14.0/+14.5/+18.4/+16.5 %).
//
// Gates (exit nonzero on violation):
//   - at every capacity, the simulation-derived 3D-over-2D efficiency
//     gain agrees with CoExplorer's analytical Figure 8 curve within
//     core::kEnergyCrossCheckTolerance (5 pp; measured ~1 pp);
//   - 3D beats 2D on on-die energy at every capacity.
//
// Scenario runs are independent cluster simulations, so --jobs N scales
// the sweep across host cores with bit-identical CSV output.
#include <cmath>

#include "bench_util.hpp"
#include "core/coexplore.hpp"
#include "exp/scenarios_energy.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

exp::Suite make_suite(const exp::CliOptions& opt) {
  exp::Suite suite;
  suite.name = opt.smoke ? "fig8_energy_smoke" : "fig8_energy";
  suite.title = "Figure 8 - energy-efficiency gain (simulation-driven)";
  exp::register_energy_scenarios(suite.registry, opt.smoke,
                                 exp::EnergyFigure::kFig8Energy);

  // Cross-scenario derived columns: per-MAC efficiency gain vs the
  // simulated 2D 1 MiB baseline (the workload is scaled per capacity, so
  // cross-capacity comparisons must normalize by work).
  suite.finalize = [](exp::SweepReport& report) {
    const std::string base = exp::energy_scenario_name(MiB(1));
    const auto base_macs = report.metric(base, "macs");
    const auto base_uj = report.metric(base, "cluster_uj_2d");
    if (!base_macs || !base_uj) {
      return;  // filtered run without the baseline scenario
    }
    const double base_eff = *base_macs / *base_uj;
    for (exp::ScenarioResult& r : report.results) {
      const auto macs = report.metric(r.name, "macs");
      const auto uj_2d = report.metric(r.name, "cluster_uj_2d");
      const auto uj_3d = report.metric(r.name, "cluster_uj_3d");
      if (!macs || !uj_2d || !uj_3d) {
        continue;
      }
      for (exp::Row& row : r.output.rows) {
        const bool is_3d = row.get("flow") == "3D";
        const double eff = *macs / (is_3d ? *uj_3d : *uj_2d);
        row.cell("gain_vs_baseline_sim", eff / base_eff - 1.0, 4);
      }
    }
  };

  suite.report = [](const exp::SweepReport& report) {
    Table table("Figure 8 - energy efficiency, simulated per capacity point");
    table.header({"SPM", "t", "cycles", "E2D uJ", "E3D uJ", "3D vs 2D sim",
                  "model", "(paper)", "err [pp]"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok()) {
        continue;
      }
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      table.row({bench::cap_name(MiB(static_cast<u64>(m("capacity_mib")))),
                 fmt_fixed(m("t"), 0), fmt_count(m("cycles")),
                 fmt_fixed(m("cluster_uj_2d"), 1), fmt_fixed(m("cluster_uj_3d"), 1),
                 fmt_pct(m("gain_eff_3d2d_sim")), fmt_pct(m("gain_eff_3d2d_model")),
                 fmt_pct(m("gain_eff_3d2d_paper")),
                 fmt_fixed(std::abs(m("gain_eff_3d2d_sim") -
                                    m("gain_eff_3d2d_model")) * 100, 2)});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("3D-over-2D efficiency gains are simulation-derived (src/power/ "
                "event accounting);\nthe analytical CoExplorer curve is the "
                "cross-check reference, tolerance %.0f pp.\n\n",
                core::kEnergyCrossCheckTolerance * 100);
  };

  // Gates: per-capacity agreement with the analytical model, and the
  // paper's headline direction (3D strictly more efficient on-die).
  for (const u64 capacity : exp::paper_capacities()) {
    const std::string name = exp::energy_scenario_name(capacity);
    suite.gate("cross-check " + name, [name](const exp::SweepReport& report) {
      const auto sim = report.metric(name, "gain_eff_3d2d_sim");
      const auto model = report.metric(name, "gain_eff_3d2d_model");
      if (!sim || !model) {
        return std::string("scenario did not run");
      }
      const double err = std::abs(*sim - *model);
      if (err > core::kEnergyCrossCheckTolerance) {
        return "sim " + fmt_pct(*sim) + " vs model " + fmt_pct(*model) +
               " (|err| " + fmt_fixed(err * 100, 1) + " pp > tolerance)";
      }
      return std::string();
    });
    suite.gate("3D beats 2D " + name, [name](const exp::SweepReport& report) {
      const auto gain = report.metric(name, "gain_eff_3d2d_sim");
      if (!gain) {
        return std::string("scenario did not run");
      }
      if (*gain <= 0.0) {
        return "3D on-die efficiency gain is " + fmt_pct(*gain);
      }
      return std::string();
    });
  }
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
