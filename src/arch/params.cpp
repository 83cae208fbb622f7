// SPDX-License-Identifier: Apache-2.0
#include "arch/params.hpp"

#include <iterator>
#include <sstream>

#include "common/assert.hpp"

namespace mp3d::arch {

void ClusterConfig::validate() const {
  MP3D_CHECK(num_groups >= 1 && num_groups <= 4, "1..4 groups supported");
  MP3D_CHECK(num_groups == 1 || num_groups == 2 || num_groups == 4,
             "groups must be 1, 2 or 4 (2x2 arrangement)");
  MP3D_CHECK(tiles_per_group >= 1, "need at least one tile per group");
  MP3D_CHECK(is_pow2(tiles_per_group), "tiles per group must be a power of two");
  MP3D_CHECK(cores_per_tile >= 1 && cores_per_tile <= 8, "1..8 cores per tile");
  MP3D_CHECK(is_pow2(banks_per_tile), "banks per tile must be a power of two");
  MP3D_CHECK(banks_per_tile >= cores_per_tile,
             "banking factor must be at least 1 (banks >= cores per tile)");
  MP3D_CHECK(spm_capacity % (static_cast<u64>(num_banks()) * 4) == 0,
             "SPM capacity must evenly split into word-granular banks");
  MP3D_CHECK(bank_bytes() >= 256, "banks smaller than 256 B are not meaningful");
  MP3D_CHECK(seq_region_bytes() < spm_capacity,
             "sequential region must leave room for the interleaved region");
  MP3D_CHECK(seq_bytes_per_tile % (static_cast<u64>(banks_per_tile) * 4) == 0,
             "sequential region must evenly split across a tile's banks");
  MP3D_CHECK(is_pow2(icache_line) && icache_line >= 8, "icache line: pow2, >= 8 B");
  // The cache indexes its lines by mask, and the physical flow sizes the
  // I$ macro's address pins by log2 of its depth.
  MP3D_CHECK(is_pow2(icache_size) && icache_size >= icache_line,
             "icache size: pow2, >= one line");
  MP3D_CHECK(gmem_bytes_per_cycle >= 1, "off-chip bandwidth must be positive");
  // 100 % would invert the starvation bug (bulk demand would shut scalar
  // traffic out completely); cap the guarantee so the scalar class always
  // keeps a share of its own.
  MP3D_CHECK(gmem_arbiter.bulk_min_pct <= 90,
             "bulk minimum share must leave scalar traffic at least 10 %");
  MP3D_CHECK(gmem_arbiter.deficit_cap_cycles >= 1 &&
                 gmem_arbiter.deficit_cap_cycles <= 1024,
             "bulk deficit cap must be in 1..1024 cycles");
  if (qos.enabled) {
    MP3D_CHECK(qos.max_pct <= 90,
               "adaptive share ceiling must leave scalar traffic at least 10 %");
    MP3D_CHECK(qos.min_pct <= qos.max_pct,
               "adaptive share floor must not exceed the ceiling");
    MP3D_CHECK(qos.step_pct >= 1 && qos.step_pct <= 90,
               "adaptive share step must be in 1..90 %");
    MP3D_CHECK(qos.window >= 16,
               "adaptive share windows below 16 cycles measure noise, not load");
    MP3D_CHECK(qos.p99_budget >= 1, "scalar p99 budget must be positive");
    MP3D_CHECK(qos.raise_stall_pct <= 100 && qos.raise_demand_pct <= 100,
               "raise thresholds are percentages of the window");
    MP3D_CHECK(gmem_arbiter.bulk_min_pct >= qos.min_pct &&
                   gmem_arbiter.bulk_min_pct <= qos.max_pct,
               "initial bulk share must lie within the controller's bounds");
  }
  MP3D_CHECK(lsu_max_outstanding >= 1 && lsu_max_outstanding <= 32,
             "LSU outstanding must be in 1..32");
  MP3D_CHECK(mul_latency >= 1, "multiplier latency must be at least one cycle");
  MP3D_CHECK(local_net_pipe >= 1 && global_net_pipe >= 1,
             "network pipes need at least one register stage");
  MP3D_CHECK(gmem_size >= MiB(1), "global memory window too small");
  // Address windows: word-aligned bases, one-past-the-end addresses that
  // are still 32-bit addresses, and no overlap (AddrMap::classify would
  // silently resolve an overlap in favour of the SPM).
  struct Window {
    const char* name;
    u64 base;
    u64 size;
  };
  const Window windows[] = {{"SPM", spm_base, spm_capacity},
                            {"ctrl", ctrl_base, kCtrlWindowBytes},
                            {"gmem", gmem_base, gmem_size}};
  for (const Window& w : windows) {
    MP3D_CHECK(w.base % 4 == 0, w.name << " base must be word aligned");
    MP3D_CHECK(w.size <= 0xFFFF'FFFFULL - w.base,
               w.name << " window must end below 2^32");
  }
  for (std::size_t i = 0; i < std::size(windows); ++i) {
    for (std::size_t j = i + 1; j < std::size(windows); ++j) {
      const Window& a = windows[i];
      const Window& b = windows[j];
      MP3D_CHECK(a.base + a.size <= b.base || b.base + b.size <= a.base,
                 a.name << " and " << b.name << " address windows overlap");
    }
  }
  MP3D_CHECK(port_queue_depth >= 1, "port queues need at least one entry");
  MP3D_CHECK(dma.engines_per_group >= 1 && dma.engines_per_group <= 8,
             "1..8 DMA engines per group");
  MP3D_CHECK(dma.max_outstanding >= 1 && dma.max_outstanding <= 64,
             "DMA descriptor queue depth must be in 1..64");
  MP3D_CHECK(dma.bytes_per_cycle >= 4 && dma.bytes_per_cycle % 4 == 0,
             "DMA port width must be a positive multiple of 4 bytes");
  MP3D_CHECK(dma.bytes_per_cycle <= 512, "DMA port width above 512 B/cycle is not meaningful");
  MP3D_CHECK(telemetry.sample_window == 0 || telemetry.sample_window >= 16,
             "counter sampling below 16-cycle windows measures the sampler, not the run");
  MP3D_CHECK(profiling.stride <= (1u << 20),
             "profiling strides above 2^20 cycles would never sample a real run");
}

std::string ClusterConfig::to_string() const {
  std::ostringstream oss;
  oss << "MemPool cluster: " << num_cores() << " cores (" << num_groups << " groups x "
      << tiles_per_group << " tiles x " << cores_per_tile << " cores), "
      << num_banks() << " banks, SPM " << spm_capacity / 1024 << " KiB ("
      << bank_bytes() / 1024.0 << " KiB/bank), off-chip " << gmem_bytes_per_cycle
      << " B/cycle, " << dma.engines_per_group << " DMA engine(s)/group @ "
      << dma.bytes_per_cycle << " B/cycle";
  if (gmem_arbiter.bulk_min_pct > 0) {
    oss << ", bulk min share " << gmem_arbiter.bulk_min_pct << " %";
  }
  if (qos.enabled) {
    oss << ", adaptive share " << qos.min_pct << ".." << qos.max_pct
        << " % (window " << qos.window << ")";
  }
  if (telemetry.sample_window > 0) {
    oss << ", telemetry window " << telemetry.sample_window;
  }
  if (telemetry.trace) {
    oss << ", event trace on";
  }
  if (profiling.enabled()) {
    oss << ", host profiling stride " << profiling.stride;
  }
  if (!fast_forward) {
    oss << ", fast-forward off";
  }
  return oss.str();
}

ClusterConfig ClusterConfig::mempool(u64 spm_capacity) {
  ClusterConfig cfg;
  cfg.spm_capacity = spm_capacity;
  // Keep the tile-sequential (stack) region lean: the paper's matmul tiles
  // fill up to 96 % of the SPM, so the interleaved region must hold
  // 3*t^2*4 B (768 KiB for the 1 MiB configuration).
  cfg.seq_bytes_per_tile = KiB(1);
  cfg.validate();
  return cfg;
}

ClusterConfig ClusterConfig::mini(u64 spm_capacity) {
  ClusterConfig cfg;
  cfg.num_groups = 1;
  cfg.tiles_per_group = 4;
  cfg.cores_per_tile = 4;
  cfg.banks_per_tile = 16;
  cfg.spm_capacity = spm_capacity;
  cfg.seq_bytes_per_tile = KiB(4);
  cfg.gmem_size = MiB(16);
  cfg.validate();
  return cfg;
}

ClusterConfig ClusterConfig::tiny() {
  ClusterConfig cfg;
  cfg.num_groups = 1;
  cfg.tiles_per_group = 1;
  cfg.cores_per_tile = 4;
  cfg.banks_per_tile = 16;
  cfg.spm_capacity = KiB(16);
  cfg.seq_bytes_per_tile = KiB(4);
  cfg.gmem_size = MiB(16);
  cfg.validate();
  return cfg;
}

}  // namespace mp3d::arch
