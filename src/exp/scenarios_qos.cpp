// SPDX-License-Identifier: Apache-2.0
#include "exp/scenarios_qos.hpp"

#include "exp/channel_soak.hpp"
#include "exp/sweep.hpp"

namespace mp3d::exp {

arch::AdaptiveShareConfig qos_soak_controller(u32 p99_budget) {
  arch::AdaptiveShareConfig cfg;
  cfg.enabled = true;
  cfg.min_pct = 0;
  cfg.max_pct = 40;
  cfg.step_pct = 10;
  // Short windows and a moderate ceiling bound the extra backlog a raised
  // share can add at burst onset: the controller halves within 16 cycles
  // of the first budget violation and is back at the floor inside ~100.
  cfg.window = 16;
  cfg.p99_budget = p99_budget;
  cfg.raise_stall_pct = 10;
  cfg.raise_demand_pct = 50;
  return cfg;
}

std::vector<u64> gmem_qos_loads(bool smoke) {
  return smoke ? std::vector<u64>{180} : std::vector<u64>{140, 180};
}

std::string gmem_qos_static_name(u64 share, u64 load, u64 bw) {
  return "qos_static/share=" + std::to_string(share) +
         "/load=" + std::to_string(load) + "/bw=" + std::to_string(bw);
}

std::string gmem_qos_adaptive_name(u64 load, u64 bw) {
  return "qos_adaptive/load=" + std::to_string(load) +
         "/bw=" + std::to_string(bw);
}

namespace {

ScenarioOutput run_qos_scenario(bool adaptive, u64 share, u64 load, u64 bw,
                                bool smoke) {
  ChannelSoakParams p;
  p.bytes_per_cycle = static_cast<u32>(bw);
  p.burst_load_pct = static_cast<u32>(load);
  p.cycles = u64{kSoakBurstPeriod} * (smoke ? 4 : 8);
  if (adaptive) {
    p.qos = qos_soak_controller();
    p.bulk_min_pct = p.qos.min_pct;
  } else {
    p.bulk_min_pct = static_cast<u32>(share);
  }
  const ChannelSoakResult r = run_channel_soak(p);

  ScenarioOutput out;
  out.sim(p.cycles);
  out.metric("adaptive", adaptive ? 1.0 : 0.0)
      .metric("share", adaptive ? -1.0 : static_cast<double>(share))
      .metric("load", static_cast<double>(load))
      .metric("bw", static_cast<double>(bw))
      .metric("scalar_p50", r.scalar_p50)
      .metric("scalar_p99", r.scalar_p99)
      .metric("scalar_bytes", static_cast<double>(r.scalar_bytes))
      .metric("bulk_bytes", static_cast<double>(r.bulk_bytes))
      .metric("bulk_throughput", r.bulk_share)
      .metric("channel_util", r.channel_util)
      .metric("backlog_end", static_cast<double>(r.scalar_backlog_end))
      .metric("share_avg", r.share_avg_pct)
      .metric("adjustments", static_cast<double>(r.adjustments));
  Row row;
  row.cell("family", adaptive ? std::string("qos_adaptive")
                              : std::string("qos_static"))
      .cell("share", adaptive ? std::string("auto") : std::to_string(share))
      .cell("load", load)
      .cell("bw", bw)
      .cell("scalar_p50", r.scalar_p50, 1)
      .cell("scalar_p99", r.scalar_p99, 1)
      .cell("bulk_tput", r.bulk_share, 4)
      .cell("share_avg", r.share_avg_pct, 1)
      .cell("adjust", r.adjustments);
  out.row(std::move(row));
  return out;
}

}  // namespace

void register_gmem_qos_scenarios(Registry& registry, bool smoke) {
  // Static Pareto points: {share} x {burst load} x {bandwidth}.
  SweepGrid statics;
  statics.axis("share", gmem_shares(smoke));
  statics.axis("load", gmem_qos_loads(smoke));
  statics.axis("bw", gmem_bws(smoke));
  statics.expand(registry, [smoke](const SweepPoint& p) {
    const u64 share = p.u("share");
    const u64 load = p.u("load");
    const u64 bw = p.u("bw");
    Scenario s;
    s.name = gmem_qos_static_name(share, load, bw);
    s.description = "mixed tenancy at a fixed bulk share (Pareto point)";
    s.run = [share, load, bw, smoke]() {
      return run_qos_scenario(/*adaptive=*/false, share, load, bw, smoke);
    };
    return s;
  });

  // The controller, on the same {burst load} x {bandwidth} grid.
  SweepGrid adaptive;
  adaptive.axis("load", gmem_qos_loads(smoke));
  adaptive.axis("bw", gmem_bws(smoke));
  adaptive.expand(registry, [smoke](const SweepPoint& p) {
    const u64 load = p.u("load");
    const u64 bw = p.u("bw");
    Scenario s;
    s.name = gmem_qos_adaptive_name(load, bw);
    s.description = "mixed tenancy under the adaptive share controller";
    s.run = [load, bw, smoke]() {
      return run_qos_scenario(/*adaptive=*/true, 0, load, bw, smoke);
    };
    return s;
  });
}

}  // namespace mp3d::exp
