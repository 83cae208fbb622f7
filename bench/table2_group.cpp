// SPDX-License-Identifier: Apache-2.0
// Regenerates Table II: group-level PPA of all eight configurations,
// normalized to MemPool-2D 1 MiB, with the paper's values side by side.
// One scenario per {flow} x {capacity} grid point; normalization to the
// baseline group happens in finalize, the paper-style metric-per-row
// pivot in the report hook.
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "phys/flow.hpp"

using namespace mp3d;
using namespace mp3d::phys;

namespace {

exp::Suite make_suite(const exp::CliOptions&) {
  exp::Suite suite;
  suite.name = "table2_group";
  suite.title = "Table II - MemPool group implementation results (model / paper)";

  exp::SweepGrid grid;
  grid.axis("flow", std::vector<std::string>{"2D", "3D"})
      .axis("cap_mib", std::vector<u64>{1, 2, 4, 8});
  grid.expand(suite.registry, [](const exp::SweepPoint& p) {
    const Flow flow = p.str("flow") == "3D" ? Flow::k3D : Flow::k2D;
    const u64 capacity = MiB(p.u("cap_mib"));
    exp::Scenario s;
    s.name = p.str("flow") + "/cap=" + p.str("cap_mib") + "MiB";
    s.description = "group implementation, " + p.str("flow") + " flow, " +
                    bench::cap_name(capacity);
    s.run = [flow, capacity]() {
      const ImplResult r = implement(ImplConfig{flow, capacity});
      const GroupImpl& g = r.group;
      const auto& pr = paper::group_ref(flow, capacity);
      exp::ScenarioOutput out;
      out.metric("footprint_mm2", g.footprint_mm2)
          .metric("combined_die_area_mm2", g.combined_die_area_mm2)
          .metric("wire_length_mm", g.wire_length_mm)
          .metric("cell_density", g.cell_density)
          .metric("cell_density_pct", g.cell_density * 100.0)
          .metric("num_buffers", g.num_buffers)
          .metric("f2f_bumps", g.f2f_bumps)
          .metric("eff_freq_ghz", g.eff_freq_ghz)
          .metric("tns_ns", g.tns_ns)
          .metric("failing_paths", g.failing_paths)
          .metric("total_power_mw", g.total_power_mw)
          .metric("pdp", g.pdp)
          .metric("paper_footprint_norm", pr.footprint_norm)
          .metric("paper_combined_area_norm", pr.combined_area_norm)
          .metric("paper_wire_length_norm", pr.wire_length_norm)
          .metric("paper_density", pr.density)
          .metric("paper_buffers", pr.buffers)
          .metric("paper_f2f_bumps", pr.f2f_bumps.value_or(0.0))
          .metric("paper_eff_freq_norm", pr.eff_freq_norm)
          .metric("paper_tns_norm", -pr.tns_norm)
          .metric("paper_failing_paths", pr.failing_paths)
          .metric("paper_power_norm", pr.power_norm)
          .metric("paper_pdp_norm", pr.pdp_norm);
      exp::Row row;
      row.cell("flow", std::string(flow_name(flow)))
          .cell("capacity_mib", capacity / MiB(1))
          .cell("density", g.cell_density, 3)
          .cell("buffers", fmt_fixed(g.num_buffers, 0))
          .cell("f2f_bumps", fmt_fixed(g.f2f_bumps, 0))
          .cell("failing_paths", fmt_fixed(g.failing_paths, 0))
          .cell("footprint_mm2", fmt_fixed(g.footprint_mm2, 4))
          .cell("eff_freq_ghz", g.eff_freq_ghz, 4)
          .cell("total_power_mw", fmt_fixed(g.total_power_mw, 1));
      out.row(std::move(row));
      return out;
    };
    return s;
  });

  // Normalized columns (vs the 2D 1 MiB group) for the CSV.
  suite.finalize = [](exp::SweepReport& report) {
    const std::string base = "2D/cap=1MiB";
    const auto norm = [&](const std::string& name, const char* key) {
      const auto v = report.metric(name, key);
      const auto b = report.metric(base, key);
      return (v && b && *b != 0.0) ? std::optional<double>(*v / *b) : std::nullopt;
    };
    for (exp::ScenarioResult& r : report.results) {
      if (r.output.rows.empty()) {
        continue;
      }
      exp::Row& row = r.output.rows[0];
      for (const auto& [column, key] :
           std::vector<std::pair<const char*, const char*>>{
               {"footprint_norm", "footprint_mm2"},
               {"area_norm", "combined_die_area_mm2"},
               {"wl_norm", "wire_length_mm"},
               {"freq_norm", "eff_freq_ghz"},
               {"tns_norm", "tns_ns"},
               {"power_norm", "total_power_mw"},
               {"pdp_norm", "pdp"}}) {
        const auto v = norm(r.name, key);
        if (v) {
          row.cell(column, *v, 3);
        }
      }
    }
  };

  suite.report = [](const exp::SweepReport& report) {
    Table table("Table II - MemPool group implementation results (model / paper)");
    table.header({"Metric", "2D 1MiB", "2D 2MiB", "2D 4MiB", "2D 8MiB", "3D 1MiB",
                  "3D 2MiB", "3D 4MiB", "3D 8MiB"});
    const std::string base = "2D/cap=1MiB";
    const auto cell = [&](const exp::ScenarioResult& r, const char* key,
                          const char* paper_key, bool normalized, int digits) {
      const auto v = report.metric(r.name, key);
      const auto b = report.metric(base, key);
      const auto p = report.metric(r.name, paper_key);
      if (!v || !p || (normalized && (!b || *b == 0.0))) {
        return std::string("-");
      }
      return fmt_fixed(normalized ? *v / *b : *v, digits) + " / " +
             fmt_fixed(*p, digits);
    };
    const auto metric_row = [&](const std::string& name, const char* key,
                                const char* paper_key, bool normalized, int digits,
                                double scale = 1.0) {
      std::vector<std::string> cells{name};
      for (const exp::ScenarioResult& r : report.results) {
        if (scale == 1.0) {
          cells.push_back(cell(r, key, paper_key, normalized, digits));
        } else {
          const auto v = report.metric(r.name, key);
          const auto p = report.metric(r.name, paper_key);
          cells.push_back(v && p ? fmt_fixed(*v * scale, digits) + " / " +
                                       fmt_fixed(*p * scale, digits)
                                 : std::string("-"));
        }
      }
      table.row(std::move(cells));
    };
    metric_row("Footprint", "footprint_mm2", "paper_footprint_norm", true, 3);
    metric_row("Combined die area", "combined_die_area_mm2",
               "paper_combined_area_norm", true, 3);
    metric_row("Wire length", "wire_length_mm", "paper_wire_length_norm", true, 3);
    metric_row("Density [%]", "cell_density_pct", "paper_density", false, 1);
    metric_row("#Buffers [e3]", "num_buffers", "paper_buffers", false, 1, 1e-3);
    metric_row("#F2F bumps [e3]", "f2f_bumps", "paper_f2f_bumps", false, 1, 1e-3);
    metric_row("Eff. frequency", "eff_freq_ghz", "paper_eff_freq_norm", true, 3);
    metric_row("TNS (norm)", "tns_ns", "paper_tns_norm", true, 2);
    metric_row("#Failing paths", "failing_paths", "paper_failing_paths", false, 0);
    metric_row("Total power", "total_power_mw", "paper_power_norm", true, 3);
    metric_row("Power-delay product", "pdp", "paper_pdp_norm", true, 3);
    std::printf("%s\n", table.to_string().c_str());

    const auto b_fp = report.metric(base, "footprint_mm2");
    const auto b_f = report.metric(base, "eff_freq_ghz");
    const auto b_p = report.metric(base, "total_power_mw");
    const auto t_fp = report.metric("3D/cap=1MiB", "footprint_mm2");
    const auto t_f = report.metric("3D/cap=1MiB", "eff_freq_ghz");
    const auto t_p = report.metric("3D/cap=1MiB", "total_power_mw");
    if (b_fp && b_f && b_p && t_fp && t_f && t_p) {
      std::printf(
          "Absolute model values: 2D 1 MiB group: %.2f mm2, %.0f MHz, %.0f mW;\n"
          "3D 1 MiB group: %.2f mm2/die, %.0f MHz, %.0f mW.\n\n",
          *b_fp, *b_f * 1e3, *b_p, *t_fp, *t_f * 1e3, *t_p);
    }
  };

  suite.gate("3D shorter wires", [](const exp::SweepReport& report) {
    for (const u64 mib : {1, 2, 4, 8}) {
      const std::string cap = "cap=" + std::to_string(mib) + "MiB";
      const auto wl2 = report.metric("2D/" + cap, "wire_length_mm");
      const auto wl3 = report.metric("3D/" + cap, "wire_length_mm");
      if (!wl2 || !wl3) {
        return cap + " did not run";
      }
      if (!(*wl3 < *wl2)) {
        return cap + ": 3D wire length not below 2D";
      }
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
