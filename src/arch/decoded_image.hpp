// SPDX-License-Identifier: Apache-2.0
// Pre-decoded program image. The ISS decodes each segment once at load
// time, including the scoreboard's hazard-register mask and the memory
// ops' address, data and write-back decode, so fetch is a bounds check
// plus an array index and issue does no decoding.
// Self-modifying code is not supported (stores to fetched segments are not
// reflected; the MemPool runtime never does this).
#pragma once

#include <utility>
#include <vector>

#include "common/units.hpp"
#include "isa/encoding.hpp"
#include "isa/program.hpp"

namespace mp3d::arch {

/// How a memory op updates its base register at issue.
enum class PostIncrement : u8 {
  kNone,  ///< no update (or the base is x0)
  kImm,   ///< rs1 += imm
  kReg,   ///< rs1 += rs2
};

/// One pre-decoded instruction. Memory ops also carry their issue-time
/// decode, so issuing one reads registers and nothing else.
struct DecodedInstr {
  isa::Instr instr;
  u32 hazard_regs = 0;  ///< isa::hazard_regs(instr)
  bool is_mem = false;  ///< isa::is_mem(instr.op)
  bool has_wdata = false;  ///< stores and AMOs send rs2's value
  u8 mem_rd = 0;  ///< register a load or AMO writes back (0: none)
  PostIncrement post_increment = PostIncrement::kNone;
  /// Added to rs1 for the address: the immediate, except for AMOs (which
  /// take no offset) and post-incrementing ops (which access rs1 itself).
  u32 addr_offset = 0;
};

inline DecodedInstr decode_instr(const isa::Instr& instr) {
  DecodedInstr d;
  d.instr = instr;
  d.hazard_regs = isa::hazard_regs(instr);
  d.is_mem = isa::is_mem(instr.op);
  if (!d.is_mem) {
    return d;
  }
  d.has_wdata = isa::is_store(instr.op) || isa::is_amo(instr.op);
  d.mem_rd = isa::writes_rd(instr) ? instr.rd : 0;
  if (isa::writes_rs1(instr)) {
    d.post_increment =
        instr.op == isa::Op::kPLwRPost ? PostIncrement::kReg : PostIncrement::kImm;
  }
  const bool offset_free = isa::is_amo(instr.op) || instr.op == isa::Op::kPLwPost ||
                           instr.op == isa::Op::kPLwRPost || instr.op == isa::Op::kPSwPost;
  d.addr_offset = offset_free ? 0 : static_cast<u32>(instr.imm);
  return d;
}

class DecodedImage {
 public:
  explicit DecodedImage(const isa::Program& program) {
    for (const isa::Segment& seg : program.segments()) {
      DecodedSegment d;
      d.base = seg.base;
      d.end = seg.end();
      d.instrs.reserve(seg.words.size());
      for (const u32 w : seg.words) {
        d.instrs.push_back(decode_instr(isa::decode(w)));
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
