// SPDX-License-Identifier: Apache-2.0
// Ablation studies around the paper's design choices, as four scenario
// families in one experiment-engine suite:
//   1. beol/*    — BEOL depth of the 3D stack (M4M4 .. M8M8): channel
//                  width and footprint sensitivity (paper §III fixes M6M6).
//   2. partition — the 8 MiB partitioning scheme: forced "all banks on
//                  memory die" vs the balanced partition the paper (and
//                  our partitioner) chooses.
//   3. crossover/* — off-chip bandwidth crossover: where the memory phase
//                  stops hiding behind the compute phase per tile size.
//   4. cluster/* — cluster-level assembly outlook (paper §V.A).
#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "kernels/matmul.hpp"
#include "model/calibration.hpp"
#include "model/matmul_model.hpp"
#include "phys/cluster_flow.hpp"
#include "phys/flow.hpp"

using namespace mp3d;
using namespace mp3d::phys;

namespace {

void register_beol(exp::Registry& registry) {
  exp::SweepGrid grid;
  grid.axis("layers", std::vector<u64>{8, 10, 12, 14, 16});
  grid.expand(registry, [](const exp::SweepPoint& p) {
    const u32 layers = static_cast<u32>(p.u("layers"));
    std::string stack = "M";
    stack += std::to_string(layers / 2);
    stack += "M";
    stack += std::to_string(layers / 2);
    exp::Scenario s;
    s.name = "beol/" + stack;
    s.description = "3D flow at 4 MiB with a " + stack + " BEOL stack";
    s.run = [layers, stack]() {
      Technology tech = Technology::node28();
      tech.layers_3d = layers;
      const ImplResult r = implement(ImplConfig{Flow::k3D, MiB(4)}, tech);
      exp::ScenarioOutput out;
      out.metric("layers", layers)
          .metric("channel_um", r.group.channel_width_mm * 1e3)
          .metric("footprint_mm2", r.group.footprint_mm2)
          .metric("eff_freq_mhz", r.group.eff_freq_ghz * 1e3);
      exp::Row row;
      row.cell("section", "beol")
          .cell("stack", stack)
          .cell("layers", static_cast<u64>(layers))
          .cell("channel_um", fmt_fixed(r.group.channel_width_mm * 1e3, 0))
          .cell("footprint_mm2", fmt_fixed(r.group.footprint_mm2, 3))
          .cell("eff_freq_mhz", fmt_fixed(r.group.eff_freq_ghz * 1e3, 0));
      out.row(std::move(row));
      return out;
    };
    return s;
  });
}

void register_partition(exp::Registry& registry) {
  registry.add("partition/8MiB",
               "balanced 8 MiB partition vs all banks on the memory die", []() {
    const ImplResult balanced = implement(ImplConfig{Flow::k3D, MiB(8)});
    // Forced naive partition: pack all 16 banks + I$ on the memory die.
    const Technology tech = Technology::node28();
    const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(8));
    const SramMacro bank = compile_sram(tech, cfg.bank_words());
    std::vector<SramMacro> all(cfg.banks_per_tile, bank);
    const u32 ic_words = static_cast<u32>(cfg.icache_size / 2 / 4);
    all.push_back(compile_sram(tech, ic_words));
    all.push_back(compile_sram(tech, ic_words));
    const PackResult naive = pack_best(all, 1.5);

    exp::ScenarioOutput out;
    out.metric("balanced_footprint_mm2", balanced.tile.footprint_mm2)
        .metric("balanced_mem_util", balanced.tile.mem_die_util)
        .metric("banks_on_logic_die", balanced.tile.spm_banks_on_logic_die)
        .metric("icache_on_logic_die",
                balanced.tile.icache_on_logic_die ? 1.0 : 0.0)
        .metric("naive_footprint_mm2", naive.bbox_area_mm2())
        .metric("naive_mem_util", naive.utilization());
    exp::Row row;
    row.cell("section", "partition")
        .cell("balanced_footprint_mm2", fmt_fixed(balanced.tile.footprint_mm2, 3))
        .cell("balanced_mem_util", balanced.tile.mem_die_util, 3)
        .cell("banks_on_logic_die",
              static_cast<u64>(balanced.tile.spm_banks_on_logic_die))
        .cell("icache_on_logic_die", balanced.tile.icache_on_logic_die ? "1" : "0")
        .cell("naive_footprint_mm2", fmt_fixed(naive.bbox_area_mm2(), 3))
        .cell("naive_mem_util", naive.utilization(), 3);
    out.row(std::move(row));
    return out;
  });
}

void register_crossover(exp::Registry& registry) {
  exp::SweepGrid grid;
  grid.axis("cap_mib", std::vector<u64>{1, 8})
      .axis("bw", std::vector<u64>{4, 16, 64});
  grid.expand(registry, [](const exp::SweepPoint& p) {
    const u64 capacity = MiB(p.u("cap_mib"));
    const double bw = p.d("bw");
    exp::Scenario s;
    s.name = "crossover/cap=" + p.str("cap_mib") + "MiB/bw=" + p.str("bw");
    s.description = "memory-vs-compute phase balance at " +
                    bench::cap_name(capacity) + ", " + p.str("bw") + " B/cycle";
    s.run = [capacity, bw]() {
      const u32 t = kernels::MatmulParams::paper_tile_dim(capacity);
      const model::MatmulCalibration cal = model::default_calibration(t);
      model::MatmulWorkload w;
      w.m = 326400;
      w.t = t;
      w.bw_bytes_per_cycle = bw;
      const auto c = model::matmul_cycles(w, cal);
      const double chunks = static_cast<double>(w.m / t) *
                            static_cast<double>(w.m / t) *
                            static_cast<double>(w.m / t);
      const double mem = c.memory / chunks;
      const double cmp = c.compute / chunks;
      exp::ScenarioOutput out;
      out.metric("t", t).metric("bw", bw).metric("mem_per_chunk", mem).metric(
          "compute_per_chunk", cmp);
      exp::Row row;
      row.cell("section", "crossover")
          .cell("t", static_cast<u64>(t))
          .cell("bw", fmt_fixed(bw, 0))
          .cell("mem_per_chunk", fmt_fixed(mem, 0))
          .cell("compute_per_chunk", fmt_fixed(cmp, 0))
          .cell("bound_by", mem > cmp ? "memory" : "compute");
      out.row(std::move(row));
      return out;
    };
    return s;
  });
}

void register_cluster(exp::Registry& registry) {
  exp::SweepGrid grid;
  grid.axis("cap_mib", std::vector<u64>{1, 8});
  grid.expand(registry, [](const exp::SweepPoint& p) {
    const u64 capacity = MiB(p.u("cap_mib"));
    exp::Scenario s;
    s.name = "cluster/cap=" + p.str("cap_mib") + "MiB";
    s.description = "2x2-group cluster assembly at " + bench::cap_name(capacity);
    s.run = [capacity]() {
      const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(capacity);
      const ClusterImpl c2 = implement_cluster(cfg, Technology::node28(), Flow::k2D);
      const ClusterImpl c3 = implement_cluster(cfg, Technology::node28(), Flow::k3D);
      exp::ScenarioOutput out;
      out.metric("cluster_2d_mm2", c2.footprint_mm2)
          .metric("cluster_3d_mm2", c3.footprint_mm2)
          .metric("group_ratio", c3.group.footprint_mm2 / c2.group.footprint_mm2)
          .metric("cluster_ratio", c3.footprint_mm2 / c2.footprint_mm2);
      exp::Row row;
      row.cell("section", "cluster")
          .cell("capacity_mib", capacity / MiB(1))
          .cell("cluster_2d_mm2", fmt_fixed(c2.footprint_mm2, 1))
          .cell("cluster_3d_mm2", fmt_fixed(c3.footprint_mm2, 1))
          .cell("group_ratio", c3.group.footprint_mm2 / c2.group.footprint_mm2, 3)
          .cell("cluster_ratio", c3.footprint_mm2 / c2.footprint_mm2, 3);
      out.row(std::move(row));
      return out;
    };
    return s;
  });
}

exp::Suite make_suite(const exp::CliOptions&) {
  exp::Suite suite;
  suite.name = "ablation_3d";
  suite.title = "Ablation studies around the paper's 3D design choices";
  register_beol(suite.registry);
  register_partition(suite.registry);
  register_crossover(suite.registry);
  register_cluster(suite.registry);

  suite.report = [](const exp::SweepReport& report) {
    Table beol("Ablation 1 - 3D BEOL depth (4 MiB configuration)");
    beol.header({"stack", "layers", "channel [um]", "group footprint [mm2]",
                 "eff freq [MHz]"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty() ||
          r.output.rows[0].get("section") != "beol") {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      beol.row({row.get("stack"), row.get("layers"), row.get("channel_um"),
                row.get("footprint_mm2"), row.get("eff_freq_mhz")});
    }
    std::printf("%s\n", beol.to_string().c_str());

    if (const exp::ScenarioResult* r = report.find("partition/8MiB");
        r != nullptr && r->ok()) {
      const auto m = [&](const char* key) {
        return report.metric("partition/8MiB", key).value_or(0.0);
      };
      std::printf(
          "Ablation 2 - 8 MiB partition: balanced scheme moves %.0f bank(s) + "
          "I$=%s to the logic die -> footprint %.3f mm2/die, mem util %.0f %%.\n",
          m("banks_on_logic_die"), m("icache_on_logic_die") != 0.0 ? "yes" : "no",
          m("balanced_footprint_mm2"), m("balanced_mem_util") * 100);
      std::printf(
          "             naive (all on memory die): %.3f mm2/die (%+.1f %% "
          "footprint), mem util %.0f %%.\n\n",
          m("naive_footprint_mm2"),
          (m("naive_footprint_mm2") / m("balanced_footprint_mm2") - 1.0) * 100,
          m("naive_mem_util") * 100);
    }

    Table cross("Ablation 3 - memory-vs-compute phase balance (model)");
    cross.header({"t", "BW [B/cyc]", "mem/chunk", "compute/chunk", "bound by"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty() ||
          r.output.rows[0].get("section") != "crossover") {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      cross.row({row.get("t"), row.get("bw"), row.get("mem_per_chunk"),
                 row.get("compute_per_chunk"), row.get("bound_by")});
    }
    std::printf("%s\n", cross.to_string().c_str());

    Table clus("Ablation 4 - cluster-level assembly (2x2 groups)");
    clus.header({"SPM", "2D cluster [mm2]", "3D cluster [mm2]", "3D/2D group",
                 "3D/2D cluster"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty() ||
          r.output.rows[0].get("section") != "cluster") {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      clus.row({bench::cap_name(MiB(std::stoull(row.get("capacity_mib")))),
                row.get("cluster_2d_mm2"), row.get("cluster_3d_mm2"),
                row.get("group_ratio"), row.get("cluster_ratio")});
    }
    std::printf("%s\n", clus.to_string().c_str());
  };

  // Deeper BEOL stacks route the face-to-face channel in less width and
  // shrink the group footprint; both must fall monotonically with depth.
  suite.gate("deeper BEOL narrows the channel", [](const exp::SweepReport& report) {
    double prev_ch = 1e18;
    double prev_fp = 1e18;
    for (const u64 layers : {8, 10, 12, 14, 16}) {
      std::string stack = "beol/M";
      stack += std::to_string(layers / 2);
      stack += "M";
      stack += std::to_string(layers / 2);
      const auto ch = report.metric(stack, "channel_um");
      const auto fp = report.metric(stack, "footprint_mm2");
      if (!ch || !fp) {
        return stack + " did not run";
      }
      if (*ch > prev_ch) {
        return stack + ": channel wider than the shallower stack";
      }
      if (*fp > prev_fp) {
        return stack + ": footprint larger than the shallower stack";
      }
      prev_ch = *ch;
      prev_fp = *fp;
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
