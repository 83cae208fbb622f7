// SPDX-License-Identifier: Apache-2.0
#include "exp/scenarios_gmem.hpp"

#include <algorithm>
#include <deque>

#include "arch/cluster.hpp"
#include "arch/global_mem.hpp"
#include "common/stats.hpp"
#include "exp/sweep.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"

namespace mp3d::exp {

GmemSoakResult run_gmem_soak(const GmemSoakParams& params) {
  arch::GmemArbiterConfig arb;
  arb.bulk_min_pct = params.bulk_min_pct;
  arb.deficit_cap_cycles = params.deficit_cap_cycles;
  arch::GlobalMemory gmem(0x8000'0000u, MiB(1), params.bytes_per_cycle,
                          params.latency, arb);

  arch::TelemetryConfig tcfg = params.telemetry;
  if (!tcfg.enabled() && obs::global_request_active()) {
    tcfg = obs::global_request().to_config();
  }
  std::shared_ptr<obs::Telemetry> telemetry;
  obs::Timeline* timeline = nullptr;
  if (tcfg.enabled()) {
    telemetry = std::make_shared<obs::Telemetry>(tcfg);
    timeline = telemetry->timeline();
    if (obs::Trace* trace = telemetry->trace(); trace != nullptr) {
      const u32 bulk = trace->add_track("gmem", 0, "bulk", 0);
      const u32 scalar = trace->add_track("gmem", 0, "scalar", 1);
      gmem.set_trace(trace, bulk, scalar);
    }
  }
  u64 next_sample = timeline != nullptr ? tcfg.sample_window : sim::kNever;
  std::vector<u64> window_latencies;

  std::vector<arch::MemResponse> responses;
  std::vector<u32> refills;
  std::deque<u64> issue_cycles;  ///< FIFO service order = response order
  std::vector<u64> latencies;
  GmemSoakResult result;

  const auto sample_window = [&](u64 cycle) {
    sim::CounterSet totals;
    gmem.add_counters(totals);
    totals.set("cycles", cycle);
    std::vector<std::pair<std::string, double>> gauges;
    gauges.emplace_back("scalar_p50", percentile(window_latencies, 0.50));
    gauges.emplace_back("scalar_p99", percentile(window_latencies, 0.99));
    gauges.emplace_back("scalar_inflight",
                        static_cast<double>(issue_cycles.size()));
    timeline->sample(cycle, totals, std::move(gauges));
    window_latencies.clear();
  };

  // The scalar generator accrues offered bytes in hundredths so fractional
  // per-cycle loads (e.g. 90 % of 2 B/cycle) stream without rounding drift.
  u64 scalar_acc_x100 = 0;
  u32 next_addr = 0;
  for (u64 cycle = 1; cycle <= params.cycles; ++cycle) {
    scalar_acc_x100 +=
        static_cast<u64>(params.bytes_per_cycle) * params.scalar_load_pct;
    while (scalar_acc_x100 >= 400) {  // one word request = 4 B = 400 x100
      scalar_acc_x100 -= 400;
      arch::MemRequest req;
      req.addr = 0x8000'0000u + next_addr;
      next_addr = (next_addr + 4) % static_cast<u32>(KiB(64));
      req.op = isa::Op::kLw;
      gmem.enqueue(req, cycle);
      issue_cycles.push_back(cycle);
    }
    responses.clear();
    refills.clear();
    const u64 demand = params.bulk_active ? (u64{1} << 30) : 0;
    gmem.step(cycle, responses, refills, demand);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const u64 latency = cycle - issue_cycles.front();
      latencies.push_back(latency);
      if (timeline != nullptr) {
        window_latencies.push_back(latency);
      }
      issue_cycles.pop_front();
    }
    if (params.bulk_active) {
      gmem.claim_bulk(params.bytes_per_cycle, cycle);
    }
    if (cycle >= next_sample) {
      sample_window(cycle);
      next_sample += tcfg.sample_window;
    }
  }

  if (telemetry != nullptr) {
    gmem.close_trace_spans(params.cycles);
    if (timeline != nullptr && params.cycles >= timeline->next_lo()) {
      sample_window(params.cycles);  // final partial window
    }
    obs::collect_run(*telemetry);  // no-op without an active global request
    result.telemetry = telemetry;
  }

  sim::CounterSet counters;
  gmem.add_counters(counters);
  result.scalar_completed = latencies.size();
  result.scalar_bytes = gmem.scalar_bytes();
  result.bulk_bytes = gmem.bulk_bytes();
  result.bulk_stall_cycles = counters.get("gmem.bulk_stall_cycles");
  result.scalar_p50 = percentile(latencies, 0.50);
  result.scalar_p99 = percentile(latencies, 0.99);
  result.bulk_share =
      static_cast<double>(result.bulk_bytes) /
      (static_cast<double>(params.cycles) * params.bytes_per_cycle);
  return result;
}

std::vector<u64> gmem_arbiter_shares(bool smoke) {
  return smoke ? std::vector<u64>{0, 50} : std::vector<u64>{0, 25, 50};
}

std::vector<u64> gmem_arbiter_bws(bool smoke) {
  return smoke ? std::vector<u64>{4, 16} : std::vector<u64>{4, 16, 64};
}

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
  GmemSoakParams p;
  p.bytes_per_cycle = static_cast<u32>(bw);
  p.bulk_min_pct = static_cast<u32>(share);
  p.cycles = smoke ? 5000 : 20000;
  if (saturated) {
    p.scalar_load_pct = kSoakSaturatedLoadPct;
  } else {
    // Offer the scalar class a stable fraction of its own guarantee.
    p.scalar_load_pct = static_cast<u32>(
        (100 - share) * kSoakFairLoadFraction / 100);
  }
  const GmemSoakResult r = run_gmem_soak(p);

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
      .metric("gmem_latency", static_cast<double>(p.latency));
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
  soaks.axis("share", gmem_arbiter_shares(smoke));
  soaks.axis("bw", gmem_arbiter_bws(smoke));
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
  kerns.axis("share", gmem_arbiter_shares(smoke));
  kerns.axis("bw", gmem_arbiter_bws(smoke));
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
