// SPDX-License-Identifier: Apache-2.0
// Regenerates Table I: MemPool tile implementation results (footprint and
// die utilizations), normalized to the 2D 1 MiB baseline, with the paper's
// values side by side. One scenario per {flow} x {capacity} grid point;
// the baseline normalization is derived in finalize from the metrics.
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "phys/flow.hpp"

using namespace mp3d;
using namespace mp3d::phys;

namespace {

std::string point_name(const exp::SweepPoint& p) {
  return p.str("flow") + "/cap=" + p.str("cap_mib") + "MiB";
}

exp::Suite make_suite(const exp::CliOptions&) {
  exp::Suite suite;
  suite.name = "table1_tile";
  suite.title = "Table I - MemPool tile implementation results (model vs paper)";

  exp::SweepGrid grid;
  grid.axis("flow", std::vector<std::string>{"2D", "3D"})
      .axis("cap_mib", std::vector<u64>{1, 2, 4, 8});
  grid.expand(suite.registry, [](const exp::SweepPoint& p) {
    const Flow flow = p.str("flow") == "3D" ? Flow::k3D : Flow::k2D;
    const u64 capacity = MiB(p.u("cap_mib"));
    exp::Scenario s;
    s.name = point_name(p);
    s.description = "tile implementation, " + p.str("flow") + " flow, " +
                    bench::cap_name(capacity);
    s.run = [flow, capacity]() {
      const ImplResult r = implement(ImplConfig{flow, capacity});
      const auto& ref = paper::tile_ref(flow, capacity);
      exp::ScenarioOutput out;
      out.metric("footprint_mm2", r.tile.footprint_mm2)
          .metric("logic_util", r.tile.logic_die_util)
          .metric("mem_util", r.tile.mem_die_util)
          .metric("banks_on_logic_die", r.tile.spm_banks_on_logic_die)
          .metric("icache_on_logic_die", r.tile.icache_on_logic_die ? 1.0 : 0.0)
          .metric("footprint_paper", ref.footprint_norm)
          .metric("logic_util_paper", ref.logic_util)
          .metric("mem_util_paper", ref.mem_util.value_or(0.0));
      exp::Row row;
      row.cell("flow", std::string(flow_name(flow)))
          .cell("capacity_mib", capacity / MiB(1))
          .cell("logic_util", r.tile.logic_die_util, 3)
          .cell("logic_util_paper", ref.logic_util, 3)
          .cell("mem_util", r.tile.mem_die_util, 3)
          .cell("mem_util_paper", ref.mem_util.value_or(0.0), 3)
          .cell("banks_on_logic_die",
                static_cast<u64>(r.tile.spm_banks_on_logic_die))
          .cell("icache_on_logic_die", r.tile.icache_on_logic_die ? "1" : "0")
          .cell("footprint_mm2", fmt_fixed(r.tile.footprint_mm2, 4))
          .cell("footprint_paper", ref.footprint_norm, 3);
      out.row(std::move(row));
      return out;
    };
    return s;
  });

  // Footprints are reported normalized to the 2D 1 MiB baseline.
  suite.finalize = [](exp::SweepReport& report) {
    const auto base = report.metric("2D/cap=1MiB", "footprint_mm2");
    if (!base) {
      return;
    }
    for (exp::ScenarioResult& r : report.results) {
      const auto fp = report.metric(r.name, "footprint_mm2");
      if (!fp || r.output.rows.empty()) {
        continue;
      }
      r.output.rows[0].cell("footprint_norm", *fp / *base, 3);
    }
  };

  suite.report = [](const exp::SweepReport& report) {
    Table table("Table I - MemPool tile implementation results (model vs paper)");
    table.header({"Flow", "SPM", "Footprint", "(paper)", "Logic util", "(paper)",
                  "Mem util", "(paper)", "banks/I$ moved"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty()) {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      const bool is_3d = row.get("flow") == "3D";
      table.row({row.get("flow"), bench::cap_name(MiB(std::stoull(row.get(
                     "capacity_mib")))),
                 row.get("footprint_norm"), fmt_norm(m("footprint_paper")),
                 fmt_fixed(m("logic_util") * 100, 0) + " %",
                 fmt_fixed(m("logic_util_paper") * 100, 0) + " %",
                 is_3d ? fmt_fixed(m("mem_util") * 100, 0) + " %" : std::string("-"),
                 m("mem_util_paper") != 0.0
                     ? fmt_fixed(m("mem_util_paper") * 100, 0) + " %"
                     : std::string("-"),
                 row.get("banks_on_logic_die") + "/" +
                     (row.get("icache_on_logic_die") == "1" ? "yes" : "no")});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf(
        "Partitioning (paper Fig. 1/3): 1-4 MiB keep all banks + I$ on the memory\n"
        "die; at 8 MiB the partitioner moves one SPM bank and the I$ banks to the\n"
        "logic die to rebalance the stack.\n\n");
  };

  suite.gate("3D footprint below 2D", [](const exp::SweepReport& report) {
    for (const u64 mib : {1, 2, 4, 8}) {
      const std::string cap = "cap=" + std::to_string(mib) + "MiB";
      const auto fp2 = report.metric("2D/" + cap, "footprint_mm2");
      const auto fp3 = report.metric("3D/" + cap, "footprint_mm2");
      if (!fp2 || !fp3) {
        return cap + " did not run";
      }
      if (!(*fp3 < *fp2)) {
        return cap + ": 3D tile footprint not below 2D";
      }
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
