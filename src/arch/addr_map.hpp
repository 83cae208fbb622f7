// SPDX-License-Identifier: Apache-2.0
// MemPool address map.
//
// SPM layout (byte addresses relative to spm_base):
//   [0, seq_total)              tile-sequential region: tile t owns the slice
//                               [t*seq_per_tile, (t+1)*seq_per_tile); within a
//                               slice, words interleave across the tile's own
//                               banks. Used for stacks and tile-private data —
//                               accesses from the owning tile stay local.
//   [seq_total, spm_capacity)   fully interleaved region: consecutive words
//                               round-robin across all banks of the cluster,
//                               maximizing banking parallelism for shared
//                               data (the paper's matrices live here).
//
// Each bank therefore serves its low rows to the sequential region and its
// remaining rows to the interleaved region.
#pragma once

#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "common/assert.hpp"

namespace mp3d::arch {

class AddrMap {
 public:
  /// Pre: `cfg` passed ClusterConfig::validate().
  explicit AddrMap(const ClusterConfig& cfg);

  Region classify(u32 addr) const {
    if (addr >= spm_base_ && addr < spm_base_ + spm_capacity_) {
      return (addr - spm_base_) < seq_total_ ? Region::kSpmSeq : Region::kSpmInterleaved;
    }
    if (addr >= ctrl_base_ && addr < ctrl_base_ + kCtrlWindowBytes) {
      return Region::kCtrl;
    }
    if (addr >= gmem_base_ && static_cast<u64>(addr) - gmem_base_ < gmem_size_) {
      return Region::kGmem;
    }
    return Region::kInvalid;
  }

  bool is_spm(u32 addr) const {
    const Region r = classify(addr);
    return r == Region::kSpmSeq || r == Region::kSpmInterleaved;
  }

  /// Decompose an SPM byte address into bank coordinates (word granular).
  BankTarget spm_target(u32 addr) const {
    const u32 off = addr - spm_base_;
    BankTarget t;
    if (off < seq_total_) {
      const u32 tile = static_cast<u32>(off / seq_per_tile_);
      const u32 within = static_cast<u32>(off % seq_per_tile_);
      const u32 word = within / 4;
      t.tile = tile;
      t.bank = word & (banks_per_tile_ - 1);
      t.row = word >> bank_shift_;
      MP3D_ASSERT(t.row < seq_rows_per_bank_);
      return t;
    }
    const u32 word = static_cast<u32>((off - seq_total_) / 4);
    const u32 global_bank = word & (num_banks_ - 1);
    t.tile = global_bank >> bank_shift_;
    t.bank = global_bank & (banks_per_tile_ - 1);
    t.row = seq_rows_per_bank_ + (word >> num_banks_shift_);
    MP3D_ASSERT(t.row < rows_per_bank_);
    return t;
  }

  /// Inverse mapping: byte address of interleaved word `index` (0-based
  /// across the whole interleaved region).
  u32 interleaved_addr(u64 word_index) const;
  /// Number of words in the interleaved region.
  u64 interleaved_words() const { return interleaved_bytes_ / 4; }

  /// Byte address of tile `tile`'s sequential slice.
  u32 seq_base(u32 tile) const;
  u64 seq_bytes_per_tile() const { return seq_per_tile_; }

  /// Rows per bank reserved for the sequential region.
  u32 seq_rows_per_bank() const { return seq_rows_per_bank_; }

  u32 gmem_base() const { return gmem_base_; }
  u64 gmem_size() const { return gmem_size_; }
  u32 ctrl_base() const { return ctrl_base_; }

 private:
  u32 spm_base_;
  u64 seq_total_;
  u64 seq_per_tile_;
  u64 spm_capacity_;
  u64 interleaved_bytes_;
  u32 ctrl_base_;
  u32 gmem_base_;
  u64 gmem_size_;
  u32 num_tiles_;
  // Bank counts are powers of two (ClusterConfig::validate), so the bank
  // decode is a mask and a shift.
  u32 banks_per_tile_;
  u32 bank_shift_;  ///< log2(banks_per_tile_)
  u32 num_banks_;
  u32 num_banks_shift_;  ///< log2(num_banks_)
  u32 rows_per_bank_;
  u32 seq_rows_per_bank_;
};

}  // namespace mp3d::arch
