// SPDX-License-Identifier: Apache-2.0
#include "arch/addr_map.hpp"

#include "common/assert.hpp"

namespace mp3d::arch {

AddrMap::AddrMap(const ClusterConfig& cfg)
    : spm_base_(cfg.spm_base),
      seq_total_(cfg.seq_region_bytes()),
      seq_per_tile_(cfg.seq_bytes_per_tile),
      spm_capacity_(cfg.spm_capacity),
      interleaved_bytes_(cfg.interleaved_bytes()),
      ctrl_base_(cfg.ctrl_base),
      gmem_base_(cfg.gmem_base),
      gmem_size_(cfg.gmem_size),
      num_tiles_(cfg.num_tiles()),
      banks_per_tile_(cfg.banks_per_tile),
      bank_shift_(log2_exact(cfg.banks_per_tile)),
      num_banks_(cfg.num_banks()),
      num_banks_shift_(log2_exact(cfg.num_banks())),
      rows_per_bank_(cfg.bank_words()),
      seq_rows_per_bank_(
          static_cast<u32>(cfg.seq_bytes_per_tile / (4ULL * cfg.banks_per_tile))) {
  MP3D_ASSERT(is_pow2(banks_per_tile_) && is_pow2(num_banks_));
}

u32 AddrMap::interleaved_addr(u64 word_index) const {
  MP3D_ASSERT(word_index < interleaved_words());
  return static_cast<u32>(spm_base_ + seq_total_ + word_index * 4);
}

u32 AddrMap::seq_base(u32 tile) const {
  MP3D_ASSERT(tile < num_tiles_);
  return static_cast<u32>(spm_base_ + tile * seq_per_tile_);
}

}  // namespace mp3d::arch
