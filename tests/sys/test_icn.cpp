// SPDX-License-Identifier: Apache-2.0
// Inter-cluster interconnect: mesh geometry, per-cycle link budgets and
// the byte-hop energy witness.
#include <gtest/gtest.h>

#include "sys/icn.hpp"

namespace mp3d {
namespace {

TEST(ClusterIcn, MeshGeometryUsesCeilSqrtColumns) {
  sys::IcnConfig cfg;
  sys::ClusterIcn mesh4(cfg, 4);  // 2x2
  EXPECT_EQ(mesh4.hops(0, 0), 0U);
  EXPECT_EQ(mesh4.hops(0, 1), 1U);
  EXPECT_EQ(mesh4.hops(0, 2), 1U);  // one row down
  EXPECT_EQ(mesh4.hops(0, 3), 2U);  // diagonal: XY = 1 + 1
  EXPECT_EQ(mesh4.hops(3, 0), 2U);  // symmetric

  sys::ClusterIcn mesh8(cfg, 8);  // 3x3 grid, last seat empty
  EXPECT_EQ(mesh8.hops(0, 2), 2U);
  EXPECT_EQ(mesh8.hops(0, 6), 2U);  // (0,0) -> (0,2): two rows
  EXPECT_EQ(mesh8.hops(0, 7), 3U);
  EXPECT_EQ(mesh8.route_latency(0, 7), 3U * cfg.hop_latency);
  EXPECT_EQ(mesh8.route_latency(4, 4), 0U);  // local: free wire
}

TEST(ClusterIcn, ClaimsDebitEgressAndIngressBudgets) {
  sys::IcnConfig cfg;
  cfg.link_bytes_per_cycle = 64;
  sys::ClusterIcn icn(cfg, 4);

  // First claim of a cycle refreshes the budgets, then debits both ports.
  EXPECT_EQ(icn.claim(0, 1, 48, 100), 48U);
  EXPECT_EQ(icn.claim(0, 2, 64, 100), 16U);   // egress(0) has 16 left
  EXPECT_EQ(icn.claim(0, 3, 64, 100), 0U);    // egress(0) exhausted
  EXPECT_EQ(icn.claim(3, 1, 64, 100), 16U);   // ingress(1) had 16 left
  EXPECT_EQ(icn.claim(2, 3, 64, 100), 64U);   // untouched ports: full link

  // A new cycle refreshes every budget.
  EXPECT_EQ(icn.claim(0, 3, 64, 101), 64U);

  sim::CounterSet counters;
  icn.add_counters(counters);
  EXPECT_EQ(counters.get("sys.icn.bytes"), 48U + 16U + 16U + 64U + 64U);
  // byte_hops: 48x1 (0->1) + 16x1 (0->2) + 16x1 (3->1) + 64x1 (2->3) +
  // 64x2 (0->3, the diagonal).
  EXPECT_EQ(counters.get("sys.icn.byte_hops"),
            48U * 1 + 16U * 1 + 16U * 1 + 64U * 1 + 64U * 2);
  EXPECT_EQ(counters.get("sys.icn.starved_claims"), 1U);
}

TEST(ClusterIcn, LocalClaimsModelTheHomePortWithZeroHops) {
  sys::IcnConfig cfg;
  cfg.link_bytes_per_cycle = 32;
  sys::ClusterIcn icn(cfg, 2);
  EXPECT_EQ(icn.claim(1, 1, 32, 7), 32U);
  sim::CounterSet counters;
  icn.add_counters(counters);
  EXPECT_EQ(counters.get("sys.icn.local_bytes"), 32U);
  EXPECT_EQ(counters.get("sys.icn.byte_hops"), 0U);  // zero-hop: free wire
}

TEST(ClusterIcn, ResetClearsBudgetsAndStats) {
  sys::ClusterIcn icn(sys::IcnConfig{}, 2);
  icn.claim(0, 1, 64, 5);
  EXPECT_GT(icn.bytes_moved(), 0U);
  icn.reset_run_state();
  EXPECT_EQ(icn.bytes_moved(), 0U);
  // The stale cycle-5 stamp is gone: a claim at cycle 5 again sees a
  // fresh budget (back-to-back runs restart the clock at zero).
  EXPECT_EQ(icn.claim(0, 1, 64, 5), 64U);
}

}  // namespace
}  // namespace mp3d
