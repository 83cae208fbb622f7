// SPDX-License-Identifier: Apache-2.0
// Single-cluster back-compat pin: a System of one cluster must be
// bit-identical to a bare Cluster — RunResult fields, every counter name
// and value, timeline CSV bytes, trace JSON bytes, and the collector
// deposit path the suite CLI uses. Any divergence here means the System
// run loop no longer reproduces Cluster::run cycle-for-cycle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/row.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sys/system.hpp"

namespace mp3d {
namespace {

arch::ClusterConfig traced_mini() {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.telemetry.sample_window = 256;
  cfg.telemetry.trace = true;
  cfg.validate();
  return cfg;
}

struct Observed {
  arch::RunResult result;
  std::string timeline_csv;
  std::string trace_json;
  std::vector<u32> memory;
};

Observed observe(arch::Cluster& cluster, const arch::RunResult& result) {
  Observed o;
  o.result = result;
  const obs::Timeline* timeline = cluster.telemetry()->timeline();
  o.timeline_csv = exp::rows_to_csv(timeline->to_rows("pin"));
  o.trace_json = obs::to_chrome_json(*cluster.telemetry()->trace());
  o.memory = cluster.read_words(cluster.config().gmem_base + MiB(1), 1024);
  return o;
}

void expect_identical(const Observed& bare, const Observed& system) {
  const arch::RunResult& a = bare.result;
  const arch::RunResult& b = system.result;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.eoc, b.eoc);
  EXPECT_EQ(a.deadlock, b.deadlock);
  EXPECT_EQ(a.hit_max_cycles, b.hit_max_cycles);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.core_exit_codes, b.core_exit_codes);
  EXPECT_EQ(a.instret, b.instret);
  EXPECT_EQ(a.console, b.console);
  ASSERT_EQ(a.markers.size(), b.markers.size());
  for (std::size_t i = 0; i < a.markers.size(); ++i) {
    EXPECT_EQ(a.markers[i].id, b.markers[i].id);
    EXPECT_EQ(a.markers[i].core, b.markers[i].core);
    EXPECT_EQ(a.markers[i].cycle, b.markers[i].cycle);
  }
  // The full counter map — names AND values — must match exactly.
  EXPECT_TRUE(a.counters == b.counters) << "bare:\n"
                                        << a.counters.to_string() << "\nsystem:\n"
                                        << b.counters.to_string();
  EXPECT_EQ(bare.timeline_csv, system.timeline_csv);
  EXPECT_EQ(bare.trace_json, system.trace_json);
  EXPECT_EQ(bare.memory, system.memory);
}

TEST(SystemCompat, SingleClusterRunIsBitIdenticalToBareCluster) {
  const arch::ClusterConfig cfg = traced_mini();
  const kernels::Kernel kernel = kernels::build_memcpy_dma(cfg, 1024, 2, 5);

  arch::Cluster bare_cluster(cfg);
  const arch::RunResult bare_result =
      kernels::run_kernel(bare_cluster, kernel, 2'000'000);
  const Observed bare = observe(bare_cluster, bare_result);

  sys::SystemConfig scfg;
  scfg.num_clusters = 1;
  scfg.cluster = cfg;
  sys::System system(scfg);
  const sys::SystemResult sys_result = system.run_kernel(kernel, 2'000'000);
  ASSERT_TRUE(sys_result.ok);
  const Observed through_system =
      observe(system.cluster(0), sys_result.jobs[0].result);

  expect_identical(bare, through_system);
  // SystemResult::counters at N == 1 carries the identical bare-cluster
  // names (values included); only the sys.* family rides alongside.
  for (const auto& [name, value] : bare.result.counters.all()) {
    EXPECT_EQ(sys_result.counters.get(name), value) << name;
  }
}

TEST(SystemCompat, CollectorDepositBytesMatchAtSingleCluster) {
  // The suite CLI path: a global telemetry request is active and the run
  // deposits its timeline/trace with the thread's collect label. At N == 1
  // the System must not touch the label, so the deposited bytes — label
  // column included — are identical to a bare Cluster's.
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  const kernels::Kernel kernel = kernels::build_memcpy_dma(cfg, 1024, 1, 5);

  const auto deposit = [&](bool through_system) {
    arch::TelemetryConfig request;
    request.sample_window = 256;
    request.trace = true;
    obs::set_global_request(request);
    obs::set_collect_label("pin");
    if (through_system) {
      sys::SystemConfig scfg;
      scfg.num_clusters = 1;
      scfg.cluster = cfg;
      sys::System system(scfg);
      const sys::SystemResult result = system.run_kernel(kernel, 2'000'000);
      EXPECT_TRUE(result.ok);
    } else {
      arch::Cluster cluster(cfg);
      kernels::run_kernel(cluster, kernel, 2'000'000);
    }
    std::pair<std::string, std::string> bytes{
        exp::rows_to_csv(obs::collected_timeline_rows()),
        obs::collected_trace_json()};
    obs::set_global_request(arch::TelemetryConfig{});  // clear
    obs::set_collect_label("");
    return bytes;
  };

  const auto bare = deposit(false);
  const auto through_system = deposit(true);
  EXPECT_FALSE(bare.first.empty());
  EXPECT_EQ(bare.first, through_system.first);    // timeline CSV bytes
  EXPECT_EQ(bare.second, through_system.second);  // trace JSON bytes
}

}  // namespace
}  // namespace mp3d
