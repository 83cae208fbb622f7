// SPDX-License-Identifier: Apache-2.0
#include "exp/channel_soak.hpp"

#include <algorithm>
#include <deque>

#include "arch/global_mem.hpp"
#include "common/stats.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "qos/adaptive_share.hpp"

namespace mp3d::exp {

ChannelSoakResult run_channel_soak(const ChannelSoakParams& params) {
  arch::GmemArbiterConfig arb;
  arb.bulk_min_pct = params.bulk_min_pct;
  arch::GlobalMemory gmem(0x8000'0000u, MiB(1), params.bytes_per_cycle, kSoakLatency,
                          arb);
  std::unique_ptr<qos::AdaptiveShareController> controller;
  if (params.qos.enabled) {
    controller = std::make_unique<qos::AdaptiveShareController>(params.qos, gmem);
  }

  const arch::TelemetryConfig tcfg = obs::effective_config(params.telemetry);
  std::shared_ptr<obs::Telemetry> telemetry;
  obs::Timeline* timeline = nullptr;
  if (tcfg.enabled()) {
    telemetry = std::make_shared<obs::Telemetry>(tcfg);
    timeline = telemetry->timeline();
    if (obs::Trace* trace = telemetry->trace(); trace != nullptr) {
      const u32 bulk = trace->add_track("gmem", 0, "bulk", 0);
      const u32 scalar = trace->add_track("gmem", 0, "scalar", 1);
      gmem.set_trace(trace, bulk, scalar);
      if (controller != nullptr) {
        controller->set_trace(trace, trace->add_track("gmem", 0, "qos", 2));
      }
    }
  }
  u64 next_sample = timeline != nullptr ? tcfg.sample_window : sim::kNever;
  std::vector<u64> window_latencies;

  std::vector<arch::MemResponse> responses;
  std::vector<u32> refills;
  std::deque<u64> issue_cycles;  ///< FIFO service order = response order
  std::vector<u64> latencies;

  const auto sample_window = [&](u64 cycle) {
    sim::CounterSet totals;
    gmem.add_counters(totals);
    if (controller != nullptr) {
      controller->add_counters(totals);
    }
    totals.set("cycles", cycle);
    std::vector<std::pair<std::string, double>> gauges;
    // The buffer is cleared below, so both quantiles select in place.
    gauges.emplace_back("scalar_p50", select_percentile(window_latencies, 0.50));
    gauges.emplace_back("scalar_p99", select_percentile(window_latencies, 0.99));
    gauges.emplace_back("scalar_inflight",
                        static_cast<double>(issue_cycles.size()));
    gauges.emplace_back("bulk_share_pct",
                        static_cast<double>(gmem.arbiter().bulk_min_pct));
    timeline->sample(cycle, std::move(totals), std::move(gauges));
    window_latencies.clear();
  };

  // Both tenant classes accrue offered bytes in hundredths so fractional
  // per-cycle rates (e.g. 90 % of 2 B/cycle) stream without rounding drift.
  u64 scalar_acc_x100 = 0;
  std::vector<u64> bulk_backlog_x100(params.bulk_rates_pct.size(), 0);
  u64 share_acc = 0;
  u32 next_addr = 0;
  for (u64 cycle = 1; cycle <= params.cycles; ++cycle) {
    const bool in_burst = (cycle - 1) % kSoakBurstPeriod < kSoakBurstCycles;
    const u32 load = in_burst ? params.burst_load_pct : params.quiet_load_pct;
    scalar_acc_x100 += static_cast<u64>(params.bytes_per_cycle) * load;
    while (scalar_acc_x100 >= 400) {  // one word request = 4 B = 400 x100
      scalar_acc_x100 -= 400;
      arch::MemRequest req;
      req.addr = 0x8000'0000u + next_addr;
      next_addr = (next_addr + 4) % static_cast<u32>(KiB(64));
      req.op = isa::Op::kLw;
      gmem.enqueue(req, cycle);
      issue_cycles.push_back(cycle);
    }
    u64 bulk_demand = 0;
    for (std::size_t i = 0; i < bulk_backlog_x100.size(); ++i) {
      bulk_backlog_x100[i] +=
          static_cast<u64>(params.bytes_per_cycle) * params.bulk_rates_pct[i];
      bulk_demand += bulk_backlog_x100[i] / 100;
    }

    responses.clear();
    refills.clear();
    gmem.step(cycle, responses, refills, bulk_demand);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const u64 latency = cycle - issue_cycles.front();
      latencies.push_back(latency);
      if (controller != nullptr) {
        controller->observe_scalar_latency(latency);
      }
      if (timeline != nullptr) {
        window_latencies.push_back(latency);
      }
      issue_cycles.pop_front();
    }

    const u32 want = static_cast<u32>(
        std::min<u64>(bulk_demand, params.bytes_per_cycle));
    u64 granted = gmem.claim_bulk(want, cycle);
    // Only the tenants' summed demand reaches the channel, and that sum
    // does not depend on which tenant a granted byte drains: a drain moves
    // whole bytes, so each backlog's fractional part stays as accrued.
    for (u64& backlog : bulk_backlog_x100) {
      const u64 take = std::min<u64>(granted, backlog / 100);
      backlog -= take * 100;
      granted -= take;
    }

    if (controller != nullptr) {
      controller->step(cycle);
    }
    share_acc += gmem.arbiter().bulk_min_pct;
    if (cycle >= next_sample) {
      sample_window(cycle);
      next_sample += tcfg.sample_window;
    }
  }

  ChannelSoakResult result;
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
  result.scalar_backlog_end = issue_cycles.size();
  result.scalar_bytes = gmem.scalar_bytes();
  result.bulk_bytes = gmem.bulk_bytes();
  result.bulk_stall_cycles = counters.get("gmem.bulk_stall_cycles");
  result.scalar_p50 = percentile(latencies, 0.50);
  result.scalar_p99 = percentile(latencies, 0.99);
  const double channel_bytes =
      static_cast<double>(params.cycles) * params.bytes_per_cycle;
  result.bulk_share = static_cast<double>(result.bulk_bytes) / channel_bytes;
  result.channel_util =
      static_cast<double>(gmem.bytes_transferred()) / channel_bytes;
  result.share_avg_pct =
      static_cast<double>(share_acc) / static_cast<double>(params.cycles);
  result.adjustments = controller != nullptr ? controller->adjustments() : 0;
  return result;
}

ChannelSoakParams constant_load_soak(u32 bytes_per_cycle, u32 bulk_min_pct,
                                     u32 load_pct, u64 cycles) {
  ChannelSoakParams p;
  p.bytes_per_cycle = bytes_per_cycle;
  p.bulk_min_pct = bulk_min_pct;
  p.burst_load_pct = load_pct;
  p.quiet_load_pct = load_pct;
  p.bulk_rates_pct = {100};
  p.cycles = cycles;
  return p;
}

std::vector<u64> gmem_shares(bool smoke) {
  return smoke ? std::vector<u64>{0, 50} : std::vector<u64>{0, 25, 50};
}

std::vector<u64> gmem_bws(bool smoke) {
  return smoke ? std::vector<u64>{4, 16} : std::vector<u64>{4, 16, 64};
}

}  // namespace mp3d::exp
