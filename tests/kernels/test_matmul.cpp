// SPDX-License-Identifier: Apache-2.0
#include "kernels/matmul.hpp"

#include <gtest/gtest.h>

#include "kernels/runtime.hpp"

namespace mp3d::kernels {
namespace {

TEST(MatmulParams, PaperTileDims) {
  EXPECT_EQ(MatmulParams::paper_tile_dim(MiB(1)), 256U);
  EXPECT_EQ(MatmulParams::paper_tile_dim(MiB(2)), 384U);
  EXPECT_EQ(MatmulParams::paper_tile_dim(MiB(4)), 544U);
  EXPECT_EQ(MatmulParams::paper_tile_dim(MiB(8)), 800U);
}

TEST(MatmulParams, PaperTilesFillSpm) {
  // 3 tiles of t^2 int32 must fit the capacity and fill most of it.
  for (const u64 mib : {1, 2, 4, 8}) {
    const u32 t = MatmulParams::paper_tile_dim(MiB(mib));
    const double fill = 3.0 * t * t * 4 / static_cast<double>(MiB(mib));
    EXPECT_LE(fill, 1.0) << mib << " MiB";
    EXPECT_GE(fill, 0.70) << mib << " MiB";
  }
}

TEST(MatmulParams, PaperMatrixDimIsLcm) {
  // M = 326400 divides evenly by every paper tile size.
  for (const u32 t : {256U, 384U, 544U, 800U}) {
    EXPECT_EQ(326400U % t, 0U) << t;
  }
}

TEST(MatmulParams, ValidationRejectsBadShapes) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  MatmulParams p;
  p.m = 30;  // not a multiple of t
  p.t = 16;
  EXPECT_THROW(p.validate(cfg), std::invalid_argument);
  p.m = 64;
  p.t = 10;  // not a multiple of 4
  EXPECT_THROW(p.validate(cfg), std::invalid_argument);
  p.t = 512;  // tiles do not fit mini's 64 KiB SPM
  p.m = 512;
  EXPECT_THROW(p.validate(cfg), std::invalid_argument);
}

class MatmulCorrectness : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(MatmulCorrectness, FullRunMatchesReference) {
  const auto [m, t] = GetParam();
  arch::Cluster cluster(arch::ClusterConfig::mini());
  MatmulParams p;
  p.m = m;
  p.t = t;
  const Kernel k = build_matmul(cluster.config(), p);
  EXPECT_NO_THROW(run_kernel(cluster, k, 30'000'000));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulCorrectness,
                         ::testing::Values(std::make_tuple(16U, 16U),
                                           std::make_tuple(32U, 16U),
                                           std::make_tuple(32U, 32U),
                                           std::make_tuple(64U, 32U),
                                           std::make_tuple(48U, 16U)),
                         [](const auto& info) {
                           std::string name = "m";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_t";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

TEST(MatmulCorrectness, TinyClusterSingleTile) {
  arch::Cluster cluster(arch::ClusterConfig::tiny());
  MatmulParams p;
  p.m = 16;
  p.t = 8;  // t^2/cores = 16 words/core
  const Kernel k = build_matmul(cluster.config(), p);
  EXPECT_NO_THROW(run_kernel(cluster, k, 10'000'000));
}

TEST(MatmulMarkers, PhaseMarkersAreWellFormed) {
  arch::Cluster cluster(arch::ClusterConfig::mini());
  MatmulParams p;
  p.m = 32;
  p.t = 16;
  const Kernel k = build_matmul(cluster.config(), p);
  const arch::RunResult r = run_kernel(cluster, k, 30'000'000);
  const u32 nt = p.m / p.t;                 // 2 chunks per tile
  const u32 tiles = nt * nt;                // 4 output tiles
  EXPECT_EQ(r.marker_cycles(marker::kMemPhaseStart).size(), tiles * nt);
  EXPECT_EQ(r.marker_cycles(marker::kComputePhaseStart).size(), tiles * nt);
  EXPECT_EQ(r.marker_cycles(marker::kComputePhaseEnd).size(), tiles * nt);
  EXPECT_EQ(r.marker_cycles(marker::kStorePhaseStart).size(), tiles);
  const MatmulPhaseTimes times = extract_phase_times(r);
  EXPECT_GT(times.mem_cycles_per_chunk, 0.0);
  EXPECT_GT(times.compute_cycles_per_chunk, 0.0);
  EXPECT_GT(times.store_cycles_per_tile, 0.0);
  EXPECT_EQ(times.chunks_observed, tiles * nt);
}

TEST(MatmulSampled, SampledVariantRunsAndSkipsVerify) {
  arch::Cluster cluster(arch::ClusterConfig::mini());
  MatmulParams p;
  p.m = 64;
  p.t = 16;
  p.outer_tiles = 1;
  p.k_chunks = 2;
  p.blocks_per_core = 1;
  const Kernel k = build_matmul(cluster.config(), p);
  EXPECT_FALSE(static_cast<bool>(k.verify));
  const arch::RunResult r = run_kernel(cluster, k, 10'000'000);
  EXPECT_TRUE(r.eoc);
  EXPECT_EQ(r.marker_cycles(marker::kComputePhaseStart).size(), 2U);
}

TEST(MatmulScaling, MemoryPhaseScalesWithBandwidth) {
  auto mem_cycles = [](u32 bw) {
    arch::ClusterConfig cfg = arch::ClusterConfig::mini();
    cfg.gmem_bytes_per_cycle = bw;
    cfg.perfect_icache = true;
    arch::Cluster cluster(cfg);
    MatmulParams p;
    p.m = 64;
    p.t = 16;
    p.outer_tiles = 1;
    p.k_chunks = 2;
    const Kernel k = build_matmul(cfg, p);
    const arch::RunResult r = run_kernel(cluster, k, 10'000'000);
    return extract_phase_times(r).mem_cycles_per_chunk;
  };
  const double slow = mem_cycles(4);
  const double fast = mem_cycles(32);
  // 8x the bandwidth must shrink the memory phase substantially, but far
  // from 8x at this tiny tile size: barrier, address setup and loop
  // overheads are bandwidth-independent (the paper's "static overhead"
  // which larger tiles amortize).
  EXPECT_LT(fast, slow / 1.8);
  // The bandwidth-bound component alone: 2 tiles * 256 words * 4 B at
  // 4 B/cycle is 512 cycles; the delta must reflect a large part of it.
  EXPECT_GT(slow - fast, 200.0);
}

TEST(MatmulScaling, ComputePhaseDominatedByMacs) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.perfect_icache = true;
  arch::Cluster cluster(cfg);
  MatmulParams p;
  p.m = 64;
  p.t = 16;
  p.outer_tiles = 1;
  p.k_chunks = 1;
  const Kernel k = build_matmul(cfg, p);
  const arch::RunResult r = run_kernel(cluster, k, 10'000'000);
  // MACs executed: blocks (16) x 16 macs x t(16) iterations... distributed
  // over 16 cores. Verify the mac counter matches t^3 per chunk.
  EXPECT_EQ(r.counters.get("core.mac_ops"), 16ULL * 16 * 16);
}

}  // namespace
}  // namespace mp3d::kernels
