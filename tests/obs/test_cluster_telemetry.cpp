// SPDX-License-Identifier: Apache-2.0
// End-to-end telemetry on a real cluster run: enabling sampling/tracing
// must not perturb the simulation (bit-identical counters), and the trace
// must carry the DMA descriptor lifecycle, core sleep spans, and kernel
// phase markers that the run actually performed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arch/cluster.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/telemetry.hpp"

namespace mp3d {
namespace {

arch::RunResult run_axpy(const arch::TelemetryConfig& telemetry,
                         bool markers = false) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry = telemetry;
  arch::Cluster cluster(cfg);
  const kernels::Kernel k = kernels::build_axpy_staged(
      cfg, 512, 3, /*use_dma=*/true, /*chunk=*/0, /*seed=*/2, markers);
  return kernels::run_kernel(cluster, k, 10'000'000);
}

TEST(ClusterTelemetry, DisabledByDefault) {
  arch::Cluster cluster(arch::ClusterConfig::mini());
  EXPECT_EQ(cluster.telemetry(), nullptr);
}

TEST(ClusterTelemetry, CountersIdenticalWithTelemetryOn) {
  const arch::RunResult off = run_axpy(arch::TelemetryConfig{});
  arch::TelemetryConfig on;
  on.sample_window = 256;
  on.trace = true;
  const arch::RunResult traced = run_axpy(on);
  EXPECT_EQ(traced.cycles, off.cycles);
  EXPECT_TRUE(traced.counters == off.counters)
      << "telemetry must observe, never perturb";
}

TEST(ClusterTelemetry, TimelineCoversTheWholeRun) {
  arch::TelemetryConfig on;
  on.sample_window = 256;

  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry = on;
  arch::Cluster cluster(cfg);
  const kernels::Kernel k =
      kernels::build_axpy_staged(cfg, 512, 3, /*use_dma=*/true);
  const arch::RunResult r = kernels::run_kernel(cluster, k, 10'000'000);

  ASSERT_NE(cluster.telemetry(), nullptr);
  const obs::Timeline* tl = cluster.telemetry()->timeline();
  ASSERT_NE(tl, nullptr);
  ASSERT_FALSE(tl->windows().empty());
  // Windows tile the run: deltas of the cycle counter sum to the runtime.
  u64 cycles = 0;
  for (std::size_t i = 0; i < tl->windows().size(); ++i) {
    cycles += tl->delta(i, "cycles");
    EXPECT_EQ(tl->windows()[i].gauges.front().first, "dma.backlog_bytes");
    EXPECT_EQ(tl->windows()[i].gauges.back().first, "cores.awake");
  }
  EXPECT_EQ(cycles, r.cycles);
  EXPECT_EQ(tl->windows().back().cycle_hi, r.cycles);
}

TEST(ClusterTelemetry, TraceCarriesDmaLifecycleAndSleepSpans) {
  arch::TelemetryConfig on;
  on.trace = true;

  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry = on;
  arch::Cluster cluster(cfg);
  const kernels::Kernel k =
      kernels::build_axpy_staged(cfg, 512, 3, /*use_dma=*/true);
  kernels::run_kernel(cluster, k, 10'000'000);

  const obs::Trace* trace = cluster.telemetry()->trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->dropped(), 0U);

  std::set<std::string> seen;
  u64 begins = 0;
  u64 ends = 0;
  for (const obs::TraceEvent& e : trace->events()) {
    seen.insert(trace->names()[e.name]);
    begins += e.phase == obs::Phase::kBegin ? 1 : 0;
    ends += e.phase == obs::Phase::kEnd ? 1 : 0;
  }
  // The DMA-staged kernel sleeps cores on transfers and runs descriptors
  // through the full staged -> started -> retired lifecycle.
  EXPECT_TRUE(seen.count("dma_staged"));
  EXPECT_TRUE(seen.count("dma_xfer"));
  EXPECT_TRUE(seen.count("dma_retired"));
  EXPECT_TRUE(seen.count("wfi"));
  // Spans are balanced (end_run() closes anything still open).
  EXPECT_EQ(begins, ends);

  // The export is valid Chrome JSON with the cluster's track layout.
  const std::string json = to_chrome_json(*trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"core0\""), std::string::npos);
  EXPECT_NE(json.find("\"dma0.0\""), std::string::npos);
}

TEST(ClusterTelemetry, MarkersLandInResultAndTrace) {
  arch::TelemetryConfig on;
  on.trace = true;
  const arch::RunResult plain = run_axpy(arch::TelemetryConfig{}, true);
  ASSERT_FALSE(plain.markers.empty());
  EXPECT_TRUE(plain.marker_cycle(kernels::marker::kKernelStart).has_value());
  EXPECT_TRUE(plain.marker_cycle(kernels::marker::kKernelEnd).has_value());
  // Phases nest: start < compute < end.
  const u64 start = *plain.marker_cycle(kernels::marker::kKernelStart);
  const u64 compute = *plain.marker_cycle(kernels::marker::kComputePhaseStart);
  const u64 end = *plain.marker_cycle(kernels::marker::kKernelEnd);
  EXPECT_LT(start, compute);
  EXPECT_LT(compute, end);

  // With tracing on, every marker also lands on the trace's marker row
  // with the id as payload and the same cycle.
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry = on;
  arch::Cluster cluster(cfg);
  const kernels::Kernel k = kernels::build_axpy_staged(
      cfg, 512, 3, /*use_dma=*/true, /*chunk=*/0, /*seed=*/2, /*markers=*/true);
  const arch::RunResult traced = kernels::run_kernel(cluster, k, 10'000'000);

  const obs::Trace* trace = cluster.telemetry()->trace();
  std::vector<std::pair<u64, u64>> marker_events;  // (cycle, id)
  for (const obs::TraceEvent& e : trace->events()) {
    if (trace->names()[e.name] == "marker") {
      marker_events.emplace_back(e.cycle, e.arg);
    }
  }
  ASSERT_EQ(marker_events.size(), traced.markers.size());
  for (std::size_t i = 0; i < marker_events.size(); ++i) {
    EXPECT_EQ(marker_events[i].first, traced.markers[i].cycle);
    EXPECT_EQ(marker_events[i].second, traced.markers[i].id);
  }
}

TEST(ClusterTelemetry, MarkersOffByDefaultCostsNothing) {
  const arch::RunResult without = run_axpy(arch::TelemetryConfig{}, false);
  EXPECT_TRUE(without.markers.empty());
}

TEST(ClusterTelemetry, ResetBetweenRunsClearsPerRunData) {
  arch::TelemetryConfig on;
  on.sample_window = 256;
  on.trace = true;

  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry = on;
  arch::Cluster cluster(cfg);
  const kernels::Kernel k =
      kernels::build_axpy_staged(cfg, 512, 3, /*use_dma=*/true);
  const arch::RunResult first = kernels::run_kernel(cluster, k, 10'000'000);
  const std::size_t first_events = cluster.telemetry()->trace()->events().size();
  const arch::RunResult second = kernels::run_kernel(cluster, k, 10'000'000);

  // Same kernel re-run on the same cluster: identical trace volume (the
  // buffer was reset, not appended to) and identical timing.
  EXPECT_EQ(second.cycles, first.cycles);
  EXPECT_EQ(cluster.telemetry()->trace()->events().size(), first_events);
}

}  // namespace
}  // namespace mp3d
