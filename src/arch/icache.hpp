// SPDX-License-Identifier: Apache-2.0
// Per-tile shared L1 instruction cache (2 KiB in the paper's tile).
//
// Timing-only model: instruction *bits* come from the pre-decoded program
// image; the cache decides whether a fetch hits, and coordinates line
// refills (which consume off-chip bandwidth). Direct-mapped, one
// outstanding refill per line with MSHR-style merging across the tile's
// four cores.
#pragma once

#include <unordered_set>
#include <vector>

#include "common/units.hpp"
#include "sim/counters.hpp"

namespace mp3d::arch {

class TileICache {
 public:
  /// Pre: `size_bytes` and `line_bytes` are powers of two, line >= 8 B.
  TileICache(u64 size_bytes, u32 line_bytes, bool perfect);

  /// True if the fetch at `pc` hits (perfect caches always hit). Runs on
  /// every fetch: the slot is a shift and a mask, and validity is folded
  /// into the tag (an empty slot holds kEmpty, which no line address
  /// equals).
  bool present(u32 pc) const { return perfect_ || tags_[index_of(pc)] == line_addr(pc); }

  /// True if the line containing `pc` has a refill in flight.
  bool miss_pending(u32 pc) const;

  /// Mark the line as being refilled. Pre: !present && !miss_pending.
  void begin_refill(u32 pc);

  /// Install the line after the refill completes.
  void finish_refill(u32 line_addr);

  /// Invalidate all contents (used between benchmark phases).
  void flush();

  /// Pre-warm the line containing `pc` (hot-cache measurements, as in the
  /// paper's compute-phase methodology).
  void warm(u32 pc);

  u32 line_addr(u32 pc) const { return pc & ~(line_bytes_ - 1); }
  u32 line_bytes() const { return line_bytes_; }

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }
  void count_hit() { ++hits_; }
  void count_miss() { ++misses_; }
  void reset_stats() { hits_ = 0; misses_ = 0; }
  void add_counters(sim::CounterSet& counters) const;

 private:
  /// Tag of an empty slot: odd, so never a line address (lines are >= 8 B).
  static constexpr u32 kEmpty = 1;

  u32 index_of(u32 pc) const { return (pc >> line_shift_) & index_mask_; }

  u32 line_bytes_;
  u32 line_shift_ = 0;  ///< log2(line_bytes_)
  u32 index_mask_ = 0;  ///< lines - 1
  bool perfect_;
  std::vector<u32> tags_;  ///< line address per slot, kEmpty when invalid
  std::unordered_set<u32> pending_;  ///< line addresses being refilled
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace mp3d::arch
