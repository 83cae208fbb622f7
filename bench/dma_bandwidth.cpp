// SPDX-License-Identifier: Apache-2.0
// DMA bandwidth sweep: the paper's 4..64 B/cycle off-chip axis, comparing
// the core-driven tiled matmul (scalar loads/stores stream every byte
// through the cores) against the double-buffered DMA variant (per-group
// engines stage the next tile while the cores compute on the current one).
//
// One scenario per bandwidth point through the experiment engine; each
// scenario simulates both variants on its own mini cluster. Reported per
// point: total cycles, speedup, and the effective global-memory bandwidth
// utilization bytes / (cycles * B_per_cycle). The core-driven kernel is
// issue-rate limited once the channel gets wide; the DMA engines keep the
// channel busy through the compute phase, so the gate requires their
// utilization to be strictly higher from 16 B/cycle up.
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "kernels/matmul.hpp"

using namespace mp3d;

namespace {

constexpr u32 kM = 64;
constexpr u32 kT = 16;

struct Point {
  u64 cycles = 0;
  u64 gmem_bytes = 0;
  double utilization(u32 bw) const {
    return static_cast<double>(gmem_bytes) /
           (static_cast<double>(cycles) * static_cast<double>(bw));
  }
};

Point run_variant(u32 bw, bool use_dma) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.perfect_icache = true;  // isolate data traffic on the swept channel
  cfg.gmem_bytes_per_cycle = bw;
  arch::Cluster cluster(cfg);
  kernels::MatmulParams p;
  p.m = kM;
  p.t = kT;
  const kernels::Kernel kernel =
      use_dma ? kernels::build_matmul_dma(cfg, p) : kernels::build_matmul(cfg, p);
  const arch::RunResult r = kernels::run_kernel(cluster, kernel, 100'000'000);
  Point point;
  point.cycles = r.cycles;
  point.gmem_bytes = r.counters.get("gmem.bytes");
  return point;
}

exp::Suite make_suite(const exp::CliOptions&) {
  exp::Suite suite;
  suite.name = "dma_bandwidth";
  suite.title = "DMA vs core-driven matmul (mini cluster, m=" + std::to_string(kM) +
                ", t=" + std::to_string(kT) + ")";

  exp::SweepGrid grid;
  grid.axis("bw", std::vector<u64>{4, 8, 16, 32, 64});
  grid.expand(suite.registry, [](const exp::SweepPoint& p) {
    const u32 bw = static_cast<u32>(p.u("bw"));
    exp::Scenario s;
    s.name = "bw=" + p.str("bw");
    s.description = "core-driven vs DMA matmul at " + p.str("bw") +
                    " B/cycle off-chip";
    s.run = [bw]() {
      const Point core_driven = run_variant(bw, false);
      const Point dma = run_variant(bw, true);
      const double speedup = static_cast<double>(core_driven.cycles) /
                             static_cast<double>(dma.cycles);
      exp::ScenarioOutput out;
      out.sim(core_driven.cycles + dma.cycles);
      out.metric("bw", bw)
          .metric("core_cycles", static_cast<double>(core_driven.cycles))
          .metric("dma_cycles", static_cast<double>(dma.cycles))
          .metric("speedup", speedup)
          .metric("core_utilization", core_driven.utilization(bw))
          .metric("dma_utilization", dma.utilization(bw));
      exp::Row row;
      row.cell("bw", static_cast<u64>(bw))
          .cell("core_cycles", core_driven.cycles)
          .cell("dma_cycles", dma.cycles)
          .cell("speedup", speedup, 4)
          .cell("core_utilization", core_driven.utilization(bw), 4)
          .cell("dma_utilization", dma.utilization(bw), 4);
      out.row(std::move(row));
      return out;
    };
    return s;
  });

  suite.report = [](const exp::SweepReport& report) {
    Table table("DMA vs core-driven matmul (mini cluster, m=" + std::to_string(kM) +
                ", t=" + std::to_string(kT) + ")");
    table.header({"BW [B/cyc]", "core cycles", "DMA cycles", "speedup", "core util",
                  "DMA util"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty()) {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      const auto m = [&](const char* key) {
        return report.metric(r.name, key).value_or(0.0);
      };
      table.row({row.get("bw"), row.get("core_cycles"), row.get("dma_cycles"),
                 fmt_norm(m("speedup"), 3) + "x", fmt_norm(m("core_utilization"), 3),
                 fmt_norm(m("dma_utilization"), 3)});
    }
    std::printf("%s\n", table.to_string().c_str());
  };

  suite.gate("DMA utilization strictly higher at >=16 B/cycle",
             [](const exp::SweepReport& report) {
               for (const u64 bw : {16, 32, 64}) {
                 const std::string name = "bw=" + std::to_string(bw);
                 const auto core = report.metric(name, "core_utilization");
                 const auto dma = report.metric(name, "dma_utilization");
                 if (!core || !dma) {
                   return name + " did not run";
                 }
                 if (!(*dma > *core)) {
                   return name + ": DMA utilization not higher (" +
                          fmt_norm(*dma, 3) + " vs " + fmt_norm(*core, 3) + ")";
                 }
               }
               return std::string();
             });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
