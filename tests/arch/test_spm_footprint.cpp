// SPDX-License-Identifier: Apache-2.0
// The SPM's host footprint follows what a run touches, not the configured
// capacity: a cluster's SPM words are zeroed storage the OS maps on first
// touch. This file builds into its own test binary, so the SPM is the
// process's first large allocation.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>

#include "arch/cluster.hpp"

namespace mp3d::arch {
namespace {

/// The process's resident set in KiB (`VmRSS` in /proc/self/status), or
/// nullopt where the kernel reports none.
std::optional<u64> vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return std::nullopt;
}

TEST(SpmFootprint, An8MiBClusterMapsOnlyWhatItTouches) {
  const std::optional<u64> before = vm_rss_kib();
  if (!before) {
    GTEST_SKIP() << "/proc/self/status has no VmRSS line";
  }
  Cluster cluster(ClusterConfig::mempool(MiB(8)));
  const u64 grown_kib = *vm_rss_kib() - *before;
  EXPECT_LT(grown_kib, 4U * 1024) << "constructing an 8 MiB cluster raised VmRSS by "
                                  << grown_kib << " KiB";

  const ClusterConfig& cfg = cluster.config();
  const u32 last = cfg.spm_base + static_cast<u32>(cfg.spm_capacity) - 4;
  EXPECT_EQ(cluster.read_word(cfg.spm_base), 0U);
  for (u64 offset = 0; offset < cfg.spm_capacity; offset += KiB(64)) {
    ASSERT_EQ(cluster.read_word(cfg.spm_base + static_cast<u32>(offset)), 0U)
        << "SPM offset " << offset;
  }
  EXPECT_EQ(cluster.read_word(last), 0U);

  cluster.write_word(last, 0xC0FFEE01U);
  EXPECT_EQ(cluster.read_word(last), 0xC0FFEE01U);
  EXPECT_EQ(cluster.read_word(last - 4), 0U);
}

}  // namespace
}  // namespace mp3d::arch
