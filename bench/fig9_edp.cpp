// SPDX-License-Identifier: Apache-2.0
// Regenerates Figure 9 — energy-delay-product variation vs SPM capacity
// (lower is better) — from *simulation*: every paper capacity point runs
// the capacity-scaled matmul on the cycle-accurate simulator and costs the
// measured counters under the 2D and 3D operating points through
// src/power/; EDP = on-die energy x runtime at each implementation's
// achieved frequency. The paper's Fig. 9 annotations are the 3D-vs-2D
// variations at the same capacity (-15.6/-17.3/-22.6/-18.2 %).
//
// Gates (exit nonzero on violation):
//   - at every capacity, the simulation-derived 3D-over-2D EDP variation
//     agrees with CoExplorer's analytical Figure 9 curve within
//     core::kEnergyCrossCheckTolerance (5 pp);
//   - 3D has strictly lower on-die EDP than 2D at every capacity.
#include <cmath>

#include "bench_util.hpp"
#include "core/coexplore.hpp"
#include "exp/scenarios_energy.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

exp::Suite make_suite(const exp::CliOptions& opt) {
  exp::Suite suite;
  suite.name = opt.smoke ? "fig9_edp_smoke" : "fig9_edp";
  suite.title = "Figure 9 - EDP variation (simulation-driven, lower=better)";
  exp::register_energy_scenarios(suite.registry, opt.smoke,
                                 exp::EnergyFigure::kFig9Edp);

  // Work-normalized EDP variation vs the simulated 2D 1 MiB baseline:
  // EDP/MAC^2 cancels the per-capacity workload scaling.
  suite.finalize = [](exp::SweepReport& report) {
    const std::string base = exp::energy_scenario_name(MiB(1));
    const auto base_macs = report.metric(base, "macs");
    const auto base_edp = report.metric(base, "edp_cluster_2d");
    if (!base_macs || !base_edp) {
      return;  // filtered run without the baseline scenario
    }
    const double base_norm = *base_edp / (*base_macs * *base_macs);
    for (exp::ScenarioResult& r : report.results) {
      const auto macs = report.metric(r.name, "macs");
      const auto edp_2d = report.metric(r.name, "edp_cluster_2d");
      const auto edp_3d = report.metric(r.name, "edp_cluster_3d");
      if (!macs || !edp_2d || !edp_3d) {
        continue;
      }
      for (exp::Row& row : r.output.rows) {
        const bool is_3d = row.get("flow") == "3D";
        const double norm = (is_3d ? *edp_3d : *edp_2d) / (*macs * *macs);
        row.cell("var_vs_baseline_sim", norm / base_norm - 1.0, 4);
      }
    }
  };

  suite.report = [](const exp::SweepReport& report) {
    Table table("Figure 9 - EDP, simulated per capacity point (lower=better)");
    table.header({"SPM", "t", "cycles", "EDP2D nJ*s", "EDP3D nJ*s",
                  "3D vs 2D sim", "model", "(paper)", "err [pp]"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok()) {
        continue;
      }
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      table.row({bench::cap_name(MiB(static_cast<u64>(m("capacity_mib")))),
                 fmt_fixed(m("t"), 0), fmt_count(m("cycles")),
                 fmt_norm(m("edp_cluster_2d") * 1e-6, 3),
                 fmt_norm(m("edp_cluster_3d") * 1e-6, 3),
                 fmt_pct(m("var_edp_3d2d_sim")), fmt_pct(m("var_edp_3d2d_model")),
                 fmt_pct(m("var_edp_3d2d_paper")),
                 fmt_fixed(std::abs(m("var_edp_3d2d_sim") -
                                    m("var_edp_3d2d_model")) * 100, 2)});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("EDP variations are simulation-derived; the analytical CoExplorer "
                "curve is the\ncross-check reference, tolerance %.0f pp.\n\n",
                core::kEnergyCrossCheckTolerance * 100);
  };

  for (const u64 capacity : exp::paper_capacities()) {
    const std::string name = exp::energy_scenario_name(capacity);
    suite.gate("cross-check " + name, [name](const exp::SweepReport& report) {
      const auto sim = report.metric(name, "var_edp_3d2d_sim");
      const auto model = report.metric(name, "var_edp_3d2d_model");
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
    suite.gate("3D lower EDP " + name, [name](const exp::SweepReport& report) {
      const auto var = report.metric(name, "var_edp_3d2d_sim");
      if (!var) {
        return std::string("scenario did not run");
      }
      if (*var >= 0.0) {
        return "3D on-die EDP variation is " + fmt_pct(*var);
      }
      return std::string();
    });
  }
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
