// SPDX-License-Identifier: Apache-2.0
#include "exp/scenarios_gmem.hpp"

#include "arch/cluster.hpp"
#include "exp/channel_soak.hpp"
#include "exp/sweep.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"

namespace mp3d::exp {

std::vector<std::string> gmem_arbiter_kernels(bool smoke) {
  return smoke ? std::vector<std::string>{"matmul"}
               : std::vector<std::string>{"matmul", "axpy"};
}

std::string gmem_soak_sat_name(u64 share, u64 bw) {
  return "soak_sat/share=" + std::to_string(share) + "/bw=" + std::to_string(bw);
}

std::string gmem_soak_fair_name(u64 share, u64 bw) {
  return "soak_fair/share=" + std::to_string(share) + "/bw=" + std::to_string(bw);
}

std::string gmem_kernel_name(const std::string& kernel, u64 share, u64 bw) {
  return "kern/" + kernel + "/share=" + std::to_string(share) +
         "/bw=" + std::to_string(bw);
}

namespace {

ScenarioOutput run_soak_scenario(u64 share, u64 bw, bool saturated, bool smoke) {
  // Oversaturate the channel, or offer the scalar class a stable fraction
  // of its own guarantee.
  const u32 load = saturated
      ? kSoakSaturatedLoadPct
      : static_cast<u32>((100 - share) * kSoakFairLoadFraction / 100);
  const ChannelSoakParams p = constant_load_soak(
      static_cast<u32>(bw), static_cast<u32>(share), load, smoke ? 5000 : 20000);
  const ChannelSoakResult r = run_channel_soak(p);

  ScenarioOutput out;
  out.sim(p.cycles);
  out.metric("share", static_cast<double>(share))
      .metric("bw", static_cast<double>(bw))
      .metric("bulk_share", r.bulk_share)
      .metric("scalar_p50", r.scalar_p50)
      .metric("scalar_p99", r.scalar_p99)
      .metric("scalar_bytes", static_cast<double>(r.scalar_bytes))
      .metric("bulk_bytes", static_cast<double>(r.bulk_bytes))
      .metric("bulk_stall_cycles", static_cast<double>(r.bulk_stall_cycles))
      .metric("gmem_latency", static_cast<double>(kSoakLatency));
  Row row;
  row.cell("family", saturated ? std::string("soak_sat") : std::string("soak_fair"))
      .cell("share", share)
      .cell("bw", bw)
      .cell("bulk_share", r.bulk_share, 4)
      .cell("scalar_p50", r.scalar_p50, 1)
      .cell("scalar_p99", r.scalar_p99, 1)
      .cell("bulk_stalls", r.bulk_stall_cycles);
  out.row(std::move(row));
  return out;
}

ScenarioOutput run_kernel_scenario(const std::string& kernel, u64 share, u64 bw,
                                   bool smoke) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.perfect_icache = true;  // isolate data traffic on the swept channel
  cfg.gmem_bytes_per_cycle = static_cast<u32>(bw);
  cfg.gmem_arbiter.bulk_min_pct = static_cast<u32>(share);
  arch::Cluster cluster(cfg);

  kernels::Kernel k;
  if (kernel == "matmul") {
    kernels::MatmulParams p;
    p.m = 64;
    p.t = 16;
    k = kernels::build_matmul_dma(cfg, p);
  } else if (kernel == "axpy") {
    k = kernels::build_axpy_staged(cfg, smoke ? 1024 : 4096, 3, /*use_dma=*/true);
  } else {
    throw std::invalid_argument("unknown gmem_arbiter kernel: " + kernel);
  }
  const arch::RunResult r = kernels::run_kernel(cluster, k, 100'000'000);

  ScenarioOutput out;
  out.sim(r.cycles);
  out.metric("share", static_cast<double>(share))
      .metric("bw", static_cast<double>(bw))
      .metric("cycles", static_cast<double>(r.cycles))
      .metric("gmem_bytes", static_cast<double>(r.counters.get("gmem.bytes")))
      .metric("scalar_bytes",
              static_cast<double>(r.counters.get("gmem.scalar_bytes")))
      .metric("bulk_bytes", static_cast<double>(r.counters.get("gmem.bulk_bytes")));
  Row row;
  row.cell("family", std::string("kern"))
      .cell("kernel", kernel)
      .cell("share", share)
      .cell("bw", bw)
      .cell("cycles", r.cycles)
      .cell("scalar_bytes", r.counters.get("gmem.scalar_bytes"))
      .cell("bulk_bytes", r.counters.get("gmem.bulk_bytes"));
  out.row(std::move(row));
  return out;
}

}  // namespace

void register_gmem_arbiter_scenarios(Registry& registry, bool smoke) {
  // Synthetic soaks: {family} x {share bound} x {bandwidth}.
  SweepGrid soaks;
  soaks.axis("family", std::vector<std::string>{"soak_sat", "soak_fair"});
  soaks.axis("share", gmem_shares(smoke));
  soaks.axis("bw", gmem_bws(smoke));
  soaks.expand(registry, [smoke](const SweepPoint& p) {
    const bool saturated = p.str("family") == "soak_sat";
    const u64 share = p.u("share");
    const u64 bw = p.u("bw");
    Scenario s;
    s.name = saturated ? gmem_soak_sat_name(share, bw)
                       : gmem_soak_fair_name(share, bw);
    s.description = saturated
        ? "scalar-saturated channel vs always-hungry bulk claimant"
        : "scalar stream at 90 % of its guaranteed share (latency probe)";
    s.run = [share, bw, saturated, smoke]() {
      return run_soak_scenario(share, bw, saturated, smoke);
    };
    return s;
  });

  // Real DMA-staged kernels: {kernel} x {share bound} x {bandwidth}.
  SweepGrid kerns;
  kerns.axis("kernel", gmem_arbiter_kernels(smoke));
  kerns.axis("share", gmem_shares(smoke));
  kerns.axis("bw", gmem_bws(smoke));
  kerns.expand(registry, [smoke](const SweepPoint& p) {
    const std::string kernel = p.str("kernel");
    const u64 share = p.u("share");
    const u64 bw = p.u("bw");
    Scenario s;
    s.name = gmem_kernel_name(kernel, share, bw);
    s.description =
        "DMA-staged " + kernel + " with the share knob threaded through";
    s.run = [kernel, share, bw, smoke]() {
      return run_kernel_scenario(kernel, share, bw, smoke);
    };
    return s;
  });
}

}  // namespace mp3d::exp
