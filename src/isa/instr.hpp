// SPDX-License-Identifier: Apache-2.0
// Semantic instruction representation for the RV32IMA + Zicsr + Xpulpimg
// subset implemented by the MemPool cores (Snitch RV32IMAXpulpimg).
//
// Standard instructions use standard RISC-V encodings (see encoding.cpp).
// The Xpulpimg subset (multiply-accumulate, post-incrementing memory
// accesses, min/max/abs) uses the custom-0/custom-1 opcode spaces with an
// encoding defined by this library; we do not claim binary compatibility
// with the PULP toolchain, only semantic equivalence of the operations the
// paper relies on.
#pragma once

#include <string>

#include "common/units.hpp"

namespace mp3d::isa {

enum class Op : u8 {
  kInvalid = 0,
  // RV32I
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // RV32M
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // RV32A (word)
  kLrW, kScW, kAmoSwapW, kAmoAddW, kAmoXorW, kAmoAndW, kAmoOrW,
  kAmoMinW, kAmoMaxW, kAmoMinuW, kAmoMaxuW,
  // Zicsr + wfi
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci, kWfi,
  // Xpulpimg subset
  kPMac,     ///< rd += rs1 * rs2
  kPMsu,     ///< rd -= rs1 * rs2
  kPMax, kPMin, kPAbs,
  kPLwPost,  ///< rd = mem32[rs1]; rs1 += imm
  kPLwRPost, ///< rd = mem32[rs1]; rs1 += rs2
  kPSwPost,  ///< mem32[rs1] = rs2; rs1 += imm
  kCount,
};

const char* op_name(Op op);

struct Instr {
  Op op = Op::kInvalid;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;   ///< sign-extended immediate (branch/jump: byte offset)
  u16 csr = 0;   ///< CSR address for Zicsr ops

  bool valid() const { return op != Op::kInvalid; }
};

// Classification helpers used by the core's issue logic. They are inline:
// the memory path runs several of them for every issued access.
inline bool is_load(Op op) {
  switch (op) {
    case Op::kLb:
    case Op::kLh:
    case Op::kLw:
    case Op::kLbu:
    case Op::kLhu:
    case Op::kPLwPost:
    case Op::kPLwRPost:
      return true;
    default:
      return false;
  }
}

inline bool is_store(Op op) {
  switch (op) {
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kPSwPost:
      return true;
    default:
      return false;
  }
}

/// Atomics, including lr/sc.
inline bool is_amo(Op op) {
  switch (op) {
    case Op::kLrW:
    case Op::kScW:
    case Op::kAmoSwapW:
    case Op::kAmoAddW:
    case Op::kAmoXorW:
    case Op::kAmoAndW:
    case Op::kAmoOrW:
    case Op::kAmoMinW:
    case Op::kAmoMaxW:
    case Op::kAmoMinuW:
    case Op::kAmoMaxuW:
      return true;
    default:
      return false;
  }
}

/// Any memory access.
inline bool is_mem(Op op) { return is_load(op) || is_store(op) || is_amo(op); }

/// Conditional branches.
inline bool is_branch(Op op) {
  switch (op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return true;
    default:
      return false;
  }
}

/// jal/jalr.
inline bool is_jump(Op op) { return op == Op::kJal || op == Op::kJalr; }

inline bool writes_rd(const Instr& instr) {
  if (instr.rd == 0) {
    return false;
  }
  switch (instr.op) {
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kPSwPost:
    case Op::kFence:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kInvalid:
      return false;
    default:
      return true;
  }
}

inline bool reads_rs1(const Instr& instr) {
  switch (instr.op) {
    case Op::kLui:
    case Op::kAuipc:
    case Op::kJal:
    case Op::kFence:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kWfi:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
    case Op::kInvalid:
      return false;
    default:
      return true;
  }
}

inline bool reads_rs2(const Instr& instr) {
  if (is_branch(instr.op)) {
    return true;
  }
  switch (instr.op) {
    case Op::kSb:
    case Op::kSh:
    case Op::kSw:
    case Op::kPSwPost:
    case Op::kPLwRPost:
    case Op::kAdd:
    case Op::kSub:
    case Op::kSll:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kXor:
    case Op::kSrl:
    case Op::kSra:
    case Op::kOr:
    case Op::kAnd:
    case Op::kMul:
    case Op::kMulh:
    case Op::kMulhsu:
    case Op::kMulhu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
    case Op::kScW:
    case Op::kAmoSwapW:
    case Op::kAmoAddW:
    case Op::kAmoXorW:
    case Op::kAmoAndW:
    case Op::kAmoOrW:
    case Op::kAmoMinW:
    case Op::kAmoMaxW:
    case Op::kAmoMinuW:
    case Op::kAmoMaxuW:
    case Op::kPMac:
    case Op::kPMsu:
    case Op::kPMax:
    case Op::kPMin:
      return true;
    default:
      return false;
  }
}

/// Post-incrementing accesses also *write* rs1.
inline bool writes_rs1(const Instr& instr) {
  switch (instr.op) {
    case Op::kPLwPost:
    case Op::kPLwRPost:
    case Op::kPSwPost:
      return instr.rs1 != 0;
    default:
      return false;
  }
}

/// p.mac/p.msu read rd as a third source (accumulator).
inline bool reads_rd(const Instr& instr) {
  return (instr.op == Op::kPMac || instr.op == Op::kPMsu) && instr.rd != 0;
}

/// The registers the core's scoreboard checks before `instr` issues, one
/// bit per register: its sources, its destination (write after write), the
/// p.mac accumulator and a post-incremented base. x0 is never pending, so
/// its bit is left clear.
inline u32 hazard_regs(const Instr& instr) {
  u32 regs = 0;
  if (reads_rs1(instr) || writes_rs1(instr)) {
    regs |= 1U << instr.rs1;
  }
  if (reads_rs2(instr)) {
    regs |= 1U << instr.rs2;
  }
  if (writes_rd(instr) || reads_rd(instr)) {
    regs |= 1U << instr.rd;
  }
  return regs & ~1U;
}

/// Well-known CSR numbers.
inline constexpr u16 kCsrMHartId = 0xF14;
inline constexpr u16 kCsrMCycle = 0xB00;
inline constexpr u16 kCsrMInstret = 0xB02;

}  // namespace mp3d::isa
