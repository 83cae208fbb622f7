// SPDX-License-Identifier: Apache-2.0
#include "arch/icache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::arch {

TileICache::TileICache(u64 size_bytes, u32 line_bytes, bool perfect)
    : line_bytes_(line_bytes), perfect_(perfect) {
  MP3D_CHECK(is_pow2(line_bytes) && line_bytes >= 8, "icache line: pow2, >= 8 B");
  MP3D_CHECK(is_pow2(size_bytes) && size_bytes >= line_bytes,
             "icache size: pow2, >= one line");
  line_shift_ = log2_exact(line_bytes);
  index_mask_ = static_cast<u32>(size_bytes / line_bytes) - 1;
  tags_.assign(size_bytes / line_bytes, kEmpty);
  pending_.reserve(8);
}

bool TileICache::miss_pending(u32 pc) const {
  return std::find(pending_.begin(), pending_.end(), line_addr(pc)) != pending_.end();
}

void TileICache::begin_refill(u32 pc) {
  MP3D_ASSERT(!perfect_ && !miss_pending(pc));
  pending_.push_back(line_addr(pc));
}

void TileICache::finish_refill(u32 line) {
  if (const auto it = std::find(pending_.begin(), pending_.end(), line); it != pending_.end()) {
    *it = pending_.back();
    pending_.pop_back();
  }
  tags_[index_of(line)] = line;
}

void TileICache::flush() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  pending_.clear();
}

void TileICache::warm(u32 pc) {
  if (perfect_) {
    return;
  }
  tags_[index_of(pc)] = line_addr(pc);
}

void TileICache::add_counters(sim::CounterSet& counters) const {
  counters.bump("icache.hits", hits_);
  counters.bump("icache.misses", misses_);
}

}  // namespace mp3d::arch
