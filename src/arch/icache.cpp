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
}

bool TileICache::miss_pending(u32 pc) const {
  return pending_.find(line_addr(pc)) != pending_.end();
}

void TileICache::begin_refill(u32 pc) {
  MP3D_ASSERT(!perfect_);
  pending_.insert(line_addr(pc));
}

void TileICache::finish_refill(u32 line) {
  pending_.erase(line);
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
