// SPDX-License-Identifier: Apache-2.0
// gmem_qos sweep: the registered mixed-tenancy scenarios stay deterministic
// under parallel execution (byte-identical CSV for any --jobs), and the
// adaptive scenarios actually exercise the controller.
#include <gtest/gtest.h>

#include <string>

#include "exp/channel_soak.hpp"
#include "exp/row.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios_qos.hpp"

namespace mp3d::exp {
namespace {

TEST(QosSweep, SmokeGridRegistersStaticsAndAdaptive) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  const auto shares = gmem_shares(true);
  const auto loads = gmem_qos_loads(true);
  const auto bws = gmem_bws(true);
  EXPECT_EQ(registry.scenarios().size(),
            shares.size() * loads.size() * bws.size() +
                loads.size() * bws.size());
}

TEST(QosSweep, CsvBytesIdenticalAcrossJobCounts) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  const SweepReport report_1 = run_sweep(registry.scenarios(), serial);
  const SweepReport report_4 = run_sweep(registry.scenarios(), parallel);
  EXPECT_EQ(report_1.failures(), 0u);
  EXPECT_EQ(report_4.failures(), 0u);
  const std::string csv_1 = rows_to_csv(report_1.rows());
  const std::string csv_4 = rows_to_csv(report_4.rows());
  EXPECT_EQ(csv_1, csv_4);
  EXPECT_NE(csv_1.find("qos_adaptive"), std::string::npos);
  EXPECT_NE(csv_1.find("qos_static"), std::string::npos);
}

TEST(QosSweep, AdaptiveScenariosActuallyAdjustTheShare) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  RunnerOptions options;
  options.jobs = 1;
  const SweepReport report = run_sweep(registry.scenarios(), options);
  for (const u64 load : gmem_qos_loads(true)) {
    for (const u64 bw : gmem_bws(true)) {
      const std::string name = gmem_qos_adaptive_name(load, bw);
      const auto adjustments = report.metric(name, "adjustments");
      ASSERT_TRUE(adjustments.has_value()) << name;
      EXPECT_GE(*adjustments, 2.0) << name;
      const auto share_avg = report.metric(name, "share_avg");
      ASSERT_TRUE(share_avg.has_value()) << name;
      EXPECT_GT(*share_avg, 0.0) << name;
      // Static scenarios report zero adjustments by construction.
      const std::string static_name = gmem_qos_static_name(0, load, bw);
      EXPECT_EQ(report.metric(static_name, "adjustments"), 0.0) << static_name;
    }
  }
}

}  // namespace
}  // namespace mp3d::exp
