// SPDX-License-Identifier: Apache-2.0
// A traced channel soak with share=0 under scalar saturation must make the
// starvation bug *visible* in the telemetry — contiguous windows whose
// bulk_stall_cycles delta equals the window size — and the bounded-share
// arbiter must erase it. The soak's outputs at the suites' points are
// pinned exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/channel_soak.hpp"
#include "exp/scenarios_gmem.hpp"
#include "exp/scenarios_qos.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"

namespace mp3d {
namespace {

exp::ChannelSoakParams starved_params(u32 share) {
  exp::ChannelSoakParams p =
      exp::constant_load_soak(4, share, exp::kSoakSaturatedLoadPct, 4096);
  p.telemetry.sample_window = 512;
  p.telemetry.trace = true;
  return p;
}

TEST(SoakTelemetry, StarvationShowsAsFullyStalledWindows) {
  const exp::ChannelSoakResult r = exp::run_channel_soak(starved_params(0));
  ASSERT_NE(r.telemetry, nullptr);
  const obs::Timeline* tl = r.telemetry->timeline();
  ASSERT_NE(tl, nullptr);
  ASSERT_EQ(tl->windows().size(), 8U);

  // Window 0 misses one stall cycle (detection lags the first step); every
  // later window is wall-to-wall starved: stall delta == cycles delta.
  EXPECT_EQ(tl->delta(0, "gmem.bulk_stall_cycles"), tl->delta(0, "cycles") - 1);
  for (std::size_t i = 1; i < tl->windows().size(); ++i) {
    EXPECT_EQ(tl->delta(i, "gmem.bulk_stall_cycles"), tl->delta(i, "cycles"))
        << "window " << i << " must be contiguously starved";
    EXPECT_EQ(tl->delta(i, "gmem.bulk_bytes"), 0U);
  }
}

TEST(SoakTelemetry, BoundedShareErasesTheStalledWindows) {
  const exp::ChannelSoakResult r = exp::run_channel_soak(starved_params(50));
  const obs::Timeline* tl = r.telemetry->timeline();
  ASSERT_EQ(tl->windows().size(), 8U);
  for (std::size_t i = 0; i < tl->windows().size(); ++i) {
    EXPECT_EQ(tl->delta(i, "gmem.bulk_stall_cycles"), 0U);
    // Bulk draws roughly its guaranteed half of 4 B/cycle per window.
    EXPECT_GE(tl->delta(i, "gmem.bulk_bytes"), 512U * 2 - 8);
  }
}

TEST(SoakTelemetry, TraceShowsOneLongBulkStallSpan) {
  const exp::ChannelSoakResult r = exp::run_channel_soak(starved_params(0));
  const obs::Trace* trace = r.telemetry->trace();
  ASSERT_NE(trace, nullptr);
  // Starvation is one unbroken span: exactly one begin/end pair on the
  // bulk track, stretched over (almost) the whole soak.
  u64 begins = 0;
  u64 ends = 0;
  sim::Cycle begin_cycle = 0;
  sim::Cycle end_cycle = 0;
  for (const obs::TraceEvent& e : trace->events()) {
    if (trace->names()[e.name] != "bulk_stall") {
      continue;
    }
    if (e.phase == obs::Phase::kBegin) {
      ++begins;
      begin_cycle = e.cycle;
    } else if (e.phase == obs::Phase::kEnd) {
      ++ends;
      end_cycle = e.cycle;
    }
  }
  EXPECT_EQ(begins, 1U);
  EXPECT_EQ(ends, 1U);
  EXPECT_LE(begin_cycle, 2U);
  EXPECT_EQ(end_cycle, 4096U);
}

TEST(SoakTelemetry, GlobalRequestReachesTheSoak) {
  arch::TelemetryConfig request;
  request.sample_window = 512;
  obs::set_global_request(request);
  obs::set_collect_label("soak_sat/share=0/bw=4");

  exp::ChannelSoakParams p = starved_params(0);
  p.telemetry = arch::TelemetryConfig{};  // nothing requested locally
  const exp::ChannelSoakResult r = exp::run_channel_soak(p);
  ASSERT_NE(r.telemetry, nullptr) << "the global request must apply";

  const std::vector<exp::Row> rows = obs::collected_timeline_rows();
  obs::set_global_request({});
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.front().get("run"), "soak_sat/share=0/bw=4");
  // Per-window latency gauges ride along with the counter deltas.
  bool saw_p99 = false;
  for (const exp::Row& row : rows) {
    saw_p99 = saw_p99 || row.get("name") == "scalar_p99";
  }
  EXPECT_TRUE(saw_p99);
}

TEST(SoakTelemetry, NoTelemetryMeansNoCost) {
  exp::ChannelSoakParams p = starved_params(0);
  p.telemetry = arch::TelemetryConfig{};
  const exp::ChannelSoakResult r = exp::run_channel_soak(p);
  EXPECT_EQ(r.telemetry, nullptr);
}

// ---- the soak's outputs, pinned exactly -----------------------------------

/// gmem_qos's smoke point at 16 B/cycle and a 180 % burst load: static at
/// share 50, or under the adaptive controller.
exp::ChannelSoakParams qos_point(bool adaptive) {
  exp::ChannelSoakParams p;
  p.bytes_per_cycle = 16;
  p.burst_load_pct = 180;
  p.cycles = u64{exp::kSoakBurstPeriod} * 4;
  if (adaptive) {
    p.qos = exp::qos_soak_controller();
    p.bulk_min_pct = p.qos.min_pct;
  } else {
    p.bulk_min_pct = 50;
  }
  return p;
}

struct PinnedSoak {
  std::string point;
  exp::ChannelSoakParams params;
  u64 scalar_completed = 0;
  u64 scalar_bytes = 0;
  u64 bulk_bytes = 0;
  u64 bulk_stall_cycles = 0;
  double scalar_p50 = 0.0;
  double scalar_p99 = 0.0;
};

TEST(SoakOutputs, MatchRecordedValues) {
  // Recorded before gmem_arbiter's and telemetry_overhead's constant-load
  // soak became a case of this loop, and asserted exactly: every
  // smoke-grid gmem_arbiter soak (5,000 cycles), telemetry_overhead's
  // full-length identical/soak, and one static and one adaptive gmem_qos
  // point.
  const u32 sat = exp::kSoakSaturatedLoadPct;
  const u32 fair0 = 100 * exp::kSoakFairLoadFraction / 100;
  const u32 fair50 = 50 * exp::kSoakFairLoadFraction / 100;
  const auto soak = &exp::constant_load_soak;
  const std::vector<PinnedSoak> pins = {
      {"soak_sat/share=0/bw=4", soak(4, 0, sat, 5000), 4996, 20000, 0, 4999, 836.5,
       1652.0500000000002},
      {"soak_sat/share=0/bw=16", soak(16, 0, sat, 5000), 19984, 80000, 0, 4999, 837,
       1653},
      {"soak_sat/share=50/bw=4", soak(4, 50, sat, 5000), 2498, 10000, 10000, 0, 1669.5,
       3301.0300000000002},
      {"soak_sat/share=50/bw=16", soak(16, 50, sat, 5000), 9992, 40000, 40000, 0,
       1669.5, 3301.0900000000001},
      {"soak_fair/share=0/bw=4", soak(4, 0, fair0, 5000), 4496, 18000, 2000, 4499, 4,
       4},
      {"soak_fair/share=0/bw=16", soak(16, 0, fair0, 5000), 17985, 72000, 8000, 2999, 4,
       4},
      {"soak_fair/share=50/bw=4", soak(4, 50, fair50, 5000), 2247, 8998, 11002, 0, 5,
       5},
      {"soak_fair/share=50/bw=16", soak(16, 50, fair50, 5000), 8992, 36000, 44000, 0, 4,
       4},
      {"telemetry_overhead identical/soak", soak(4, 50, sat, 100'000), 49998, 200000,
       200000, 0, 33336.5, 66001.029999999999},
      {"qos_static/share=50/load=180/bw=16", qos_point(false), 20478, 81920, 180224, 0,
       552, 1319},
      {"qos_adaptive/load=180/bw=16", qos_point(true), 20478, 81920, 180224, 3641, 157,
       425},
  };
  for (const PinnedSoak& pin : pins) {
    const exp::ChannelSoakResult r = exp::run_channel_soak(pin.params);
    EXPECT_EQ(r.scalar_completed, pin.scalar_completed) << pin.point;
    EXPECT_EQ(r.scalar_bytes, pin.scalar_bytes) << pin.point;
    EXPECT_EQ(r.bulk_bytes, pin.bulk_bytes) << pin.point;
    EXPECT_EQ(r.bulk_stall_cycles, pin.bulk_stall_cycles) << pin.point;
    EXPECT_EQ(r.scalar_p50, pin.scalar_p50) << pin.point;
    EXPECT_EQ(r.scalar_p99, pin.scalar_p99) << pin.point;
  }
}

}  // namespace
}  // namespace mp3d
