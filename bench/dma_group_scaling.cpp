// SPDX-License-Identifier: Apache-2.0
// Group-parallel DMA scaling sweep: with SPMD per-group issue, every
// group's leader core streams its slice of a gmem buffer through its own
// group's engines, so bulk bandwidth scales with the group count until the
// off-chip channel saturates. The sweep fixes the engine port width at
// 8 B/cycle against a 64 B/cycle channel, so the engines — not the channel
// — are the bottleneck on the small configurations: bandwidth must grow
// strictly monotonically with the group count at fixed engines_per_group.
//
// One scenario per (engines_per_group, groups) grid point through the
// experiment engine; the monotonicity gate compares scenarios across the
// group axis. --smoke shrinks the grid and workloads (the CTest-gated
// regression run).
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "kernels/simple_kernels.hpp"

using namespace mp3d;

namespace {

arch::ClusterConfig scaling_cfg(u32 groups, u32 tiles_per_group, u32 engines) {
  arch::ClusterConfig cfg;
  cfg.num_groups = groups;
  cfg.tiles_per_group = tiles_per_group;
  cfg.cores_per_tile = 4;
  cfg.banks_per_tile = 16;
  // 16 KiB of SPM per tile keeps the bank geometry identical across the
  // sweep while giving every extra group its own buffer slice.
  cfg.spm_capacity = KiB(16) * groups * tiles_per_group;
  cfg.seq_bytes_per_tile = KiB(4);
  cfg.gmem_size = MiB(16);
  cfg.perfect_icache = true;  // isolate bulk traffic on the channel
  cfg.gmem_bytes_per_cycle = 64;
  cfg.dma.bytes_per_cycle = 8;  // engine port is the bottleneck, not the channel
  cfg.dma.engines_per_group = engines;
  cfg.validate();
  return cfg;
}

std::string point_name(u64 engines, u64 groups) {
  return "engines=" + std::to_string(engines) + "/groups=" + std::to_string(groups);
}

exp::Suite make_suite(const exp::CliOptions& opt) {
  const bool smoke = opt.smoke;
  const std::vector<u64> group_sweep = smoke ? std::vector<u64>{1, 2}
                                             : std::vector<u64>{1, 2, 4};
  const std::vector<u64> engine_sweep = smoke ? std::vector<u64>{1}
                                              : std::vector<u64>{1, 2};
  const u32 tiles_per_group = smoke ? 1 : 4;
  const u32 words_per_group = smoke ? 2048 : 8192;  // 8 / 32 KiB per leader
  const u32 rounds = smoke ? 2 : 6;

  exp::Suite suite;
  suite.name = smoke ? "dma_group_scaling_smoke" : "dma_group_scaling";
  suite.title = std::string("group-parallel DMA streaming bandwidth") +
                (smoke ? " (smoke)" : "") +
                " [B/cycle, 8 B/cycle engine port, 64 B/cycle channel]";

  exp::SweepGrid grid;
  grid.axis("engines", engine_sweep).axis("groups", group_sweep);
  grid.expand(suite.registry, [=](const exp::SweepPoint& p) {
    const u32 engines = static_cast<u32>(p.u("engines"));
    const u32 groups = static_cast<u32>(p.u("groups"));
    exp::Scenario s;
    s.name = point_name(engines, groups);
    s.description = "SPMD group-parallel memcpy, " + p.str("groups") +
                    " group(s) x " + p.str("engines") + " engine(s)";
    s.run = [=]() {
      const arch::ClusterConfig cfg = scaling_cfg(groups, tiles_per_group, engines);
      arch::Cluster cluster(cfg);
      const u32 n = words_per_group * groups;
      const arch::RunResult r = kernels::run_kernel(
          cluster, kernels::build_memcpy_dma(cfg, n, rounds), 200'000'000);
      const double bw = static_cast<double>(r.counters.get("dma.bytes")) /
                        static_cast<double>(r.cycles);
      exp::ScenarioOutput out;
      out.sim(r.cycles);
      out.metric("bandwidth_bytes_per_cycle", bw);
      exp::Row row;
      row.cell("engines_per_group", static_cast<u64>(engines))
          .cell("groups", static_cast<u64>(groups))
          .cell("bandwidth_bytes_per_cycle", bw, 4);
      out.row(std::move(row));
      return out;
    };
    return s;
  });

  suite.report = [=](const exp::SweepReport& report) {
    Table table(std::string("group-parallel DMA streaming bandwidth") +
                (smoke ? " (smoke)" : "") +
                " [B/cycle, 8 B/cycle engine port, 64 B/cycle channel]");
    std::vector<std::string> header{"engines/group"};
    for (const u64 g : group_sweep) {
      header.push_back(std::to_string(g) + (g == 1 ? " group" : " groups"));
    }
    table.header(header);
    for (const u64 engines : engine_sweep) {
      std::vector<std::string> row{std::to_string(engines)};
      for (const u64 groups : group_sweep) {
        const auto bw =
            report.metric(point_name(engines, groups), "bandwidth_bytes_per_cycle");
        row.push_back(bw ? fmt_norm(*bw, 2) : "-");
      }
      table.row(std::move(row));
    }
    std::printf("%s\n", table.to_string().c_str());
  };

  suite.gate("bandwidth strictly increasing with group count",
             [=](const exp::SweepReport& report) {
               for (const u64 engines : engine_sweep) {
                 double prev = 0.0;
                 for (const u64 groups : group_sweep) {
                   const auto bw = report.metric(point_name(engines, groups),
                                                 "bandwidth_bytes_per_cycle");
                   if (!bw) {
                     return point_name(engines, groups) + " did not run";
                   }
                   if (*bw <= prev) {
                     return point_name(engines, groups) +
                            ": bandwidth not above the previous group count";
                   }
                   prev = *bw;
                 }
               }
               return std::string();
             });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
