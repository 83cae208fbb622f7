// SPDX-License-Identifier: Apache-2.0
// Regenerates Figure 7: matmul performance gain vs SPM capacity for the 2D
// and 3D flows, relative to MemPool-2D 1 MiB @ 16 B/cycle. The annotations
// are the 3D-over-2D speedups at the same capacity (paper: +4.2/+5.3/
// +9.1/+5.1 %). One scenario per capacity point through the experiment
// engine; each scenario is self-contained (builds its own co-explorer).
#include "bench_util.hpp"
#include "core/coexplore.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

exp::Scenario make_capacity_scenario(u64 capacity) {
  exp::Scenario s;
  s.name = "cap=" + std::to_string(capacity / MiB(1)) + "MiB";
  s.description = "2D/3D performance gain vs the 2D 1 MiB baseline at " +
                  bench::cap_name(capacity);
  s.run = [capacity]() {
    const core::CoExplorer explorer;
    const auto& p2 = explorer.at(phys::Flow::k2D, capacity);
    const auto& p3 = explorer.at(phys::Flow::k3D, capacity);
    double paper = 0.0;
    for (const auto& ref : phys::paper::figures789()) {
      if (ref.capacity == capacity) {
        paper = ref.perf_gain_3d_over_2d;
      }
    }
    exp::ScenarioOutput out;
    out.metric("gain_2d", explorer.performance_gain(p2))
        .metric("gain_3d", explorer.performance_gain(p3))
        .metric("gain_3d_over_2d", explorer.gain_3d_over_2d_perf(capacity))
        .metric("gain_3d_over_2d_paper", paper)
        .metric("runtime_2d_ms", p2.runtime_ms)
        .metric("runtime_3d_ms", p3.runtime_ms);
    exp::Row row;
    row.cell("capacity_mib", capacity / MiB(1))
        .cell("gain_2d", explorer.performance_gain(p2), 4)
        .cell("gain_3d", explorer.performance_gain(p3), 4)
        .cell("gain_3d_over_2d", explorer.gain_3d_over_2d_perf(capacity), 4)
        .cell("gain_3d_over_2d_paper", paper, 4)
        .cell("runtime_2d_ms", fmt_fixed(p2.runtime_ms, 2))
        .cell("runtime_3d_ms", fmt_fixed(p3.runtime_ms, 2));
    out.row(std::move(row));
    return out;
  };
  return s;
}

exp::Suite make_suite(const exp::CliOptions&) {
  exp::Suite suite;
  suite.name = "fig7_performance";
  suite.title = "Figure 7 - performance gain vs MemPool-2D 1 MiB (16 B/cycle)";
  for (const u64 mib : {1, 2, 4, 8}) {
    suite.registry.add(make_capacity_scenario(MiB(mib)));
  }

  suite.report = [](const exp::SweepReport& report) {
    Table table("Figure 7 - performance gain vs MemPool-2D 1 MiB (16 B/cycle)");
    table.header({"SPM", "2D gain", "3D gain", "3D vs 2D", "(paper)"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok()) {
        continue;
      }
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      const u64 cap_mib = r.output.rows.empty()
                              ? 0
                              : std::stoull(r.output.rows[0].get("capacity_mib"));
      table.row({bench::cap_name(MiB(cap_mib)), fmt_pct(m("gain_2d")),
                 fmt_pct(m("gain_3d")), fmt_pct(m("gain_3d_over_2d")),
                 fmt_pct(m("gain_3d_over_2d_paper"))});
    }
    std::printf("%s\n", table.to_string().c_str());
    const auto headline = report.metric("cap=8MiB", "gain_3d");
    if (headline) {
      std::printf("Headline: MemPool-3D 8 MiB achieves %s over the baseline "
                  "(paper: +8.4 %%).\n\n",
                  fmt_pct(*headline).c_str());
    }
  };

  suite.gate("3D wins at every capacity", [](const exp::SweepReport& report) {
    for (const exp::ScenarioResult& r : report.results) {
      const auto gain = report.metric(r.name, "gain_3d_over_2d");
      if (!gain || *gain <= 0.0) {
        return r.name + ": 3D-over-2D performance gain not positive";
      }
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
