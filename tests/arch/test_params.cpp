// SPDX-License-Identifier: Apache-2.0
#include "arch/params.hpp"

#include <gtest/gtest.h>

#include "arch/cluster.hpp"

namespace mp3d::arch {
namespace {

TEST(ClusterConfig, PaperDefaults) {
  const ClusterConfig cfg = ClusterConfig::mempool(MiB(1));
  EXPECT_EQ(cfg.num_cores(), 256U);
  EXPECT_EQ(cfg.num_tiles(), 64U);
  EXPECT_EQ(cfg.num_banks(), 1024U);
  EXPECT_EQ(cfg.bank_bytes(), KiB(1));
  EXPECT_EQ(cfg.bank_words(), 256U);
}

TEST(ClusterConfig, PaperCapacitySweep) {
  // The paper's four configurations: 1/2/4/8 MiB -> 1/2/4/8 KiB banks.
  for (const u64 mib : {1, 2, 4, 8}) {
    const ClusterConfig cfg = ClusterConfig::mempool(MiB(mib));
    EXPECT_EQ(cfg.bank_bytes(), KiB(mib));
  }
}

TEST(ClusterConfig, MiniAndTinyValid) {
  EXPECT_NO_THROW(ClusterConfig::mini().validate());
  EXPECT_NO_THROW(ClusterConfig::tiny().validate());
  EXPECT_EQ(ClusterConfig::mini().num_cores(), 16U);
  EXPECT_EQ(ClusterConfig::tiny().num_cores(), 4U);
}

TEST(ClusterConfig, RejectsBadTopology) {
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.num_groups = 3;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.tiles_per_group = 12;  // not a power of two
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.banks_per_tile = 2;  // fewer banks than cores
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, RejectsBadMemoryShape) {
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.spm_capacity = MiB(1) + 4;  // does not split evenly into 1024 banks
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.seq_bytes_per_tile = MiB(1);  // seq region would eat everything
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, RejectsBadGmemArbiter) {
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.gmem_arbiter.bulk_min_pct = 91;  // scalar must keep at least 10 %
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.gmem_arbiter.bulk_min_pct = 90;  // the boundary is allowed
  EXPECT_NO_THROW(cfg.validate());

  cfg = ClusterConfig::mempool();
  cfg.gmem_arbiter.deficit_cap_cycles = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, RejectsBadQosController) {
  // The adaptive-share block is only validated when enabled.
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.qos.window = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.qos.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.qos.enabled = true;
  cfg.qos.max_pct = 95;  // scalar must keep at least 10 %
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.qos.enabled = true;
  cfg.qos.min_pct = 50;
  cfg.qos.max_pct = 40;  // floor above ceiling
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The configured static share must sit inside the controller's band —
  // it becomes the initial live share.
  cfg = ClusterConfig::mempool();
  cfg.qos.enabled = true;
  cfg.qos.min_pct = 10;
  cfg.qos.max_pct = 40;
  cfg.gmem_arbiter.bulk_min_pct = 50;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.gmem_arbiter.bulk_min_pct = 25;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfig, RejectsBadTiming) {
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.mul_latency = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.local_net_pipe = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.lsu_max_outstanding = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, RejectsNonPowerOfTwoIcache) {
  // The cache indexes its lines by mask, and the physical flow derives the
  // I$ macro's address pins from log2 of its depth: 3 KiB would floor to
  // 8 pins instead of 9.
  ClusterConfig cfg = ClusterConfig::mempool();
  cfg.icache_size = KiB(3);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);

  cfg = ClusterConfig::mempool();
  cfg.icache_size = KiB(4);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterConfig, ClusterRejectsInvalidConfigBeforeBuildingAnything) {
  // A Cluster validates its config before deriving the address map or the
  // bank array from it; both divide by these counts, so a zero must throw
  // like validate() does, not crash the process.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.banks_per_tile = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);

  cfg = ClusterConfig::mini();
  cfg.tiles_per_group = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);

  cfg = ClusterConfig::mini();
  cfg.banks_per_tile = 24;  // not a power of two: the bank decode shifts
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

TEST(ClusterConfig, RejectsBadAddressWindows) {
  // Overlapping windows: AddrMap::classify would turn the gmem (or ctrl)
  // addresses inside the SPM window into SPM accesses without a word.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.gmem_base = cfg.spm_base;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mini();
  cfg.ctrl_base = cfg.gmem_base + 0x1000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Windows that leave the 32-bit address space.
  cfg = ClusterConfig::mini();
  cfg.gmem_size = MiB(8192);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ClusterConfig::mini();
  cfg.spm_base = 0xFFFF'0000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // A base that is not word aligned.
  cfg = ClusterConfig::mini();
  cfg.gmem_base = 0x8000'0002;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ClusterConfig, ToStringMentionsShape) {
  const std::string s = ClusterConfig::mempool(MiB(4)).to_string();
  EXPECT_NE(s.find("256 cores"), std::string::npos);
  EXPECT_NE(s.find("4096 KiB"), std::string::npos);
}

}  // namespace
}  // namespace mp3d::arch
