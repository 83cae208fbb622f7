// SPDX-License-Identifier: Apache-2.0
// Pre-decoded program image. The ISS decodes each segment once at load
// time, including the scoreboard's hazard-register mask, so fetch is a
// bounds check plus an array index and issue does no decoding.
// Self-modifying code is not supported (stores to fetched segments are not
// reflected; the MemPool runtime never does this).
#pragma once

#include <utility>
#include <vector>

#include "common/units.hpp"
#include "isa/encoding.hpp"
#include "isa/program.hpp"

namespace mp3d::arch {

/// One pre-decoded instruction.
struct DecodedInstr {
  isa::Instr instr;
  u32 hazard_regs = 0;  ///< isa::hazard_regs(instr)
};

class DecodedImage {
 public:
  explicit DecodedImage(const isa::Program& program) {
    for (const isa::Segment& seg : program.segments()) {
      DecodedSegment d;
      d.base = seg.base;
      d.end = seg.end();
      d.instrs.reserve(seg.words.size());
      for (const u32 w : seg.words) {
        const isa::Instr instr = isa::decode(w);
        d.instrs.push_back(DecodedInstr{instr, isa::hazard_regs(instr)});
      }
      segments_.push_back(std::move(d));
    }
  }

  /// Returns nullptr when pc is outside every segment.
  const DecodedInstr* lookup(u32 pc) const {
    // Common case: sequential execution within one segment.
    if (cached_ != nullptr && pc >= cached_->base && pc < cached_->end) {
      return &cached_->instrs[(pc - cached_->base) / 4];
    }
    for (const DecodedSegment& seg : segments_) {
      if (pc >= seg.base && pc < seg.end) {
        cached_ = &seg;
        return &seg.instrs[(pc - seg.base) / 4];
      }
    }
    return nullptr;
  }

  /// [base, end) byte extents of every decoded segment, in load order —
  /// lets callers (icache pre-warming) walk exactly the loaded code
  /// instead of guessing an address range.
  std::vector<std::pair<u32, u32>> segment_spans() const {
    std::vector<std::pair<u32, u32>> spans;
    spans.reserve(segments_.size());
    for (const DecodedSegment& seg : segments_) {
      spans.emplace_back(seg.base, seg.end);
    }
    return spans;
  }

 private:
  struct DecodedSegment {
    u32 base = 0;
    u32 end = 0;
    std::vector<DecodedInstr> instrs;
  };
  std::vector<DecodedSegment> segments_;
  mutable const DecodedSegment* cached_ = nullptr;
};

}  // namespace mp3d::arch
