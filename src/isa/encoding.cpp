// SPDX-License-Identifier: Apache-2.0
#include "isa/encoding.hpp"

#include "common/assert.hpp"

namespace mp3d::isa {
namespace {

// Base opcodes (bits [6:0]).
constexpr u32 kOpcLui = 0b0110111;
constexpr u32 kOpcAuipc = 0b0010111;
constexpr u32 kOpcJal = 0b1101111;
constexpr u32 kOpcJalr = 0b1100111;
constexpr u32 kOpcBranch = 0b1100011;
constexpr u32 kOpcLoad = 0b0000011;
constexpr u32 kOpcStore = 0b0100011;
constexpr u32 kOpcOpImm = 0b0010011;
constexpr u32 kOpcOp = 0b0110011;
constexpr u32 kOpcMiscMem = 0b0001111;
constexpr u32 kOpcSystem = 0b1110011;
constexpr u32 kOpcAmo = 0b0101111;
constexpr u32 kOpcCustom0 = 0b0001011;
constexpr u32 kOpcCustom1 = 0b0101011;

constexpr u32 bits(u32 word, u32 hi, u32 lo) {
  return (word >> lo) & ((1U << (hi - lo + 1)) - 1U);
}

i32 sext(u32 value, u32 width) {
  const u32 shift = 32 - width;
  return static_cast<i32>(value << shift) >> shift;
}

i32 imm_i(u32 w) { return sext(bits(w, 31, 20), 12); }
i32 imm_s(u32 w) { return sext((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12); }
i32 imm_b(u32 w) {
  const u32 v = (bits(w, 31, 31) << 12) | (bits(w, 7, 7) << 11) |
                (bits(w, 30, 25) << 5) | (bits(w, 11, 8) << 1);
  return sext(v, 13);
}
i32 imm_u(u32 w) { return static_cast<i32>(w & 0xFFFFF000U); }
i32 imm_j(u32 w) {
  const u32 v = (bits(w, 31, 31) << 20) | (bits(w, 19, 12) << 12) |
                (bits(w, 20, 20) << 11) | (bits(w, 30, 21) << 1);
  return sext(v, 21);
}

Instr make(Op op, u8 rd, u8 rs1, u8 rs2, i32 imm, u16 csr = 0) {
  Instr out;
  out.op = op;
  out.rd = rd;
  out.rs1 = rs1;
  out.rs2 = rs2;
  out.imm = imm;
  out.csr = csr;
  return out;
}

Instr decode_op(u32 w, u8 rd, u8 rs1, u8 rs2) {
  const u32 f3 = bits(w, 14, 12);
  const u32 f7 = bits(w, 31, 25);
  if (f7 == 0b0000000) {
    switch (f3) {
      case 0: return make(Op::kAdd, rd, rs1, rs2, 0);
      case 1: return make(Op::kSll, rd, rs1, rs2, 0);
      case 2: return make(Op::kSlt, rd, rs1, rs2, 0);
      case 3: return make(Op::kSltu, rd, rs1, rs2, 0);
      case 4: return make(Op::kXor, rd, rs1, rs2, 0);
      case 5: return make(Op::kSrl, rd, rs1, rs2, 0);
      case 6: return make(Op::kOr, rd, rs1, rs2, 0);
      case 7: return make(Op::kAnd, rd, rs1, rs2, 0);
      default: break;
    }
  } else if (f7 == 0b0100000) {
    switch (f3) {
      case 0: return make(Op::kSub, rd, rs1, rs2, 0);
      case 5: return make(Op::kSra, rd, rs1, rs2, 0);
      default: break;
    }
  } else if (f7 == 0b0000001) {  // M extension
    switch (f3) {
      case 0: return make(Op::kMul, rd, rs1, rs2, 0);
      case 1: return make(Op::kMulh, rd, rs1, rs2, 0);
      case 2: return make(Op::kMulhsu, rd, rs1, rs2, 0);
      case 3: return make(Op::kMulhu, rd, rs1, rs2, 0);
      case 4: return make(Op::kDiv, rd, rs1, rs2, 0);
      case 5: return make(Op::kDivu, rd, rs1, rs2, 0);
      case 6: return make(Op::kRem, rd, rs1, rs2, 0);
      case 7: return make(Op::kRemu, rd, rs1, rs2, 0);
      default: break;
    }
  } else if (f7 == 0b0100001) {  // Xpulpimg mac/msu
    switch (f3) {
      case 0: return make(Op::kPMac, rd, rs1, rs2, 0);
      case 1: return make(Op::kPMsu, rd, rs1, rs2, 0);
      default: break;
    }
  } else if (f7 == 0b0100010) {  // Xpulpimg min/max/abs
    switch (f3) {
      case 0: return make(Op::kPMax, rd, rs1, rs2, 0);
      case 1: return make(Op::kPMin, rd, rs1, rs2, 0);
      case 2: return make(Op::kPAbs, rd, rs1, 0, 0);
      default: break;
    }
  }
  return {};
}

Instr decode_amo(u32 w, u8 rd, u8 rs1, u8 rs2) {
  if (bits(w, 14, 12) != 0b010) {  // only .w
    return {};
  }
  const u32 f5 = bits(w, 31, 27);
  switch (f5) {
    case 0b00010: return rs2 == 0 ? make(Op::kLrW, rd, rs1, 0, 0) : Instr{};
    case 0b00011: return make(Op::kScW, rd, rs1, rs2, 0);
    case 0b00001: return make(Op::kAmoSwapW, rd, rs1, rs2, 0);
    case 0b00000: return make(Op::kAmoAddW, rd, rs1, rs2, 0);
    case 0b00100: return make(Op::kAmoXorW, rd, rs1, rs2, 0);
    case 0b01100: return make(Op::kAmoAndW, rd, rs1, rs2, 0);
    case 0b01000: return make(Op::kAmoOrW, rd, rs1, rs2, 0);
    case 0b10000: return make(Op::kAmoMinW, rd, rs1, rs2, 0);
    case 0b10100: return make(Op::kAmoMaxW, rd, rs1, rs2, 0);
    case 0b11000: return make(Op::kAmoMinuW, rd, rs1, rs2, 0);
    case 0b11100: return make(Op::kAmoMaxuW, rd, rs1, rs2, 0);
    default: return {};
  }
}

Instr decode_system(u32 w, u8 rd, u8 rs1) {
  const u32 f3 = bits(w, 14, 12);
  const auto csr = static_cast<u16>(bits(w, 31, 20));
  switch (f3) {
    case 0: {
      if (w == 0x00000073U) {
        return make(Op::kEcall, 0, 0, 0, 0);
      }
      if (w == 0x00100073U) {
        return make(Op::kEbreak, 0, 0, 0, 0);
      }
      if (w == 0x10500073U) {
        return make(Op::kWfi, 0, 0, 0, 0);
      }
      return {};
    }
    case 1: return make(Op::kCsrrw, rd, rs1, 0, 0, csr);
    case 2: return make(Op::kCsrrs, rd, rs1, 0, 0, csr);
    case 3: return make(Op::kCsrrc, rd, rs1, 0, 0, csr);
    case 5: return make(Op::kCsrrwi, rd, 0, 0, static_cast<i32>(rs1), csr);
    case 6: return make(Op::kCsrrsi, rd, 0, 0, static_cast<i32>(rs1), csr);
    case 7: return make(Op::kCsrrci, rd, 0, 0, static_cast<i32>(rs1), csr);
    default: return {};
  }
}

}  // namespace

Instr decode(u32 w) {
  const u32 opc = bits(w, 6, 0);
  const auto rd = static_cast<u8>(bits(w, 11, 7));
  const auto rs1 = static_cast<u8>(bits(w, 19, 15));
  const auto rs2 = static_cast<u8>(bits(w, 24, 20));
  const u32 f3 = bits(w, 14, 12);
  const u32 f7 = bits(w, 31, 25);

  switch (opc) {
    case kOpcLui: return make(Op::kLui, rd, 0, 0, imm_u(w));
    case kOpcAuipc: return make(Op::kAuipc, rd, 0, 0, imm_u(w));
    case kOpcJal: return make(Op::kJal, rd, 0, 0, imm_j(w));
    case kOpcJalr: return f3 == 0 ? make(Op::kJalr, rd, rs1, 0, imm_i(w)) : Instr{};
    case kOpcBranch: {
      switch (f3) {
        case 0: return make(Op::kBeq, 0, rs1, rs2, imm_b(w));
        case 1: return make(Op::kBne, 0, rs1, rs2, imm_b(w));
        case 4: return make(Op::kBlt, 0, rs1, rs2, imm_b(w));
        case 5: return make(Op::kBge, 0, rs1, rs2, imm_b(w));
        case 6: return make(Op::kBltu, 0, rs1, rs2, imm_b(w));
        case 7: return make(Op::kBgeu, 0, rs1, rs2, imm_b(w));
        default: return {};
      }
    }
    case kOpcLoad: {
      switch (f3) {
        case 0: return make(Op::kLb, rd, rs1, 0, imm_i(w));
        case 1: return make(Op::kLh, rd, rs1, 0, imm_i(w));
        case 2: return make(Op::kLw, rd, rs1, 0, imm_i(w));
        case 4: return make(Op::kLbu, rd, rs1, 0, imm_i(w));
        case 5: return make(Op::kLhu, rd, rs1, 0, imm_i(w));
        default: return {};
      }
    }
    case kOpcStore: {
      switch (f3) {
        case 0: return make(Op::kSb, 0, rs1, rs2, imm_s(w));
        case 1: return make(Op::kSh, 0, rs1, rs2, imm_s(w));
        case 2: return make(Op::kSw, 0, rs1, rs2, imm_s(w));
        default: return {};
      }
    }
    case kOpcOpImm: {
      switch (f3) {
        case 0: return make(Op::kAddi, rd, rs1, 0, imm_i(w));
        case 2: return make(Op::kSlti, rd, rs1, 0, imm_i(w));
        case 3: return make(Op::kSltiu, rd, rs1, 0, imm_i(w));
        case 4: return make(Op::kXori, rd, rs1, 0, imm_i(w));
        case 6: return make(Op::kOri, rd, rs1, 0, imm_i(w));
        case 7: return make(Op::kAndi, rd, rs1, 0, imm_i(w));
        case 1:
          return f7 == 0 ? make(Op::kSlli, rd, rs1, 0, static_cast<i32>(rs2)) : Instr{};
        case 5:
          if (f7 == 0b0000000) {
            return make(Op::kSrli, rd, rs1, 0, static_cast<i32>(rs2));
          }
          if (f7 == 0b0100000) {
            return make(Op::kSrai, rd, rs1, 0, static_cast<i32>(rs2));
          }
          return {};
        default: return {};
      }
    }
    case kOpcOp: return decode_op(w, rd, rs1, rs2);
    case kOpcMiscMem: return f3 == 0 ? make(Op::kFence, 0, 0, 0, 0) : Instr{};
    case kOpcSystem: return decode_system(w, rd, rs1);
    case kOpcAmo: return decode_amo(w, rd, rs1, rs2);
    case kOpcCustom0: {
      if (f3 == 0b010) {  // p.lw rd, imm(rs1!)
        return make(Op::kPLwPost, rd, rs1, 0, imm_i(w));
      }
      if (f3 == 0b110 && f7 == 0) {  // p.lw rd, rs2(rs1!)
        return make(Op::kPLwRPost, rd, rs1, rs2, 0);
      }
      return {};
    }
    case kOpcCustom1: {
      if (f3 == 0b010) {  // p.sw rs2, imm(rs1!)
        return make(Op::kPSwPost, 0, rs1, rs2, imm_s(w));
      }
      return {};
    }
    default: return {};
  }
}

namespace {

u32 enc_r(u32 opc, u32 f3, u32 f7, u8 rd, u8 rs1, u8 rs2) {
  return opc | (u32{rd} << 7) | (f3 << 12) | (u32{rs1} << 15) | (u32{rs2} << 20) |
         (f7 << 25);
}

u32 enc_i(u32 opc, u32 f3, u8 rd, u8 rs1, i32 imm) {
  MP3D_ASSERT_MSG(imm >= -2048 && imm <= 2047, "I-immediate out of range: " << imm);
  return opc | (u32{rd} << 7) | (f3 << 12) | (u32{rs1} << 15) |
         (static_cast<u32>(imm & 0xFFF) << 20);
}

u32 enc_s(u32 opc, u32 f3, u8 rs1, u8 rs2, i32 imm) {
  MP3D_ASSERT_MSG(imm >= -2048 && imm <= 2047, "S-immediate out of range: " << imm);
  const u32 u = static_cast<u32>(imm & 0xFFF);
  return opc | ((u & 0x1FU) << 7) | (f3 << 12) | (u32{rs1} << 15) | (u32{rs2} << 20) |
         ((u >> 5) << 25);
}

u32 enc_b(u32 opc, u32 f3, u8 rs1, u8 rs2, i32 imm) {
  MP3D_ASSERT_MSG(imm >= -4096 && imm <= 4095 && (imm & 1) == 0,
                  "B-immediate out of range: " << imm);
  const u32 u = static_cast<u32>(imm);
  return opc | (((u >> 11) & 1U) << 7) | (((u >> 1) & 0xFU) << 8) | (f3 << 12) |
         (u32{rs1} << 15) | (u32{rs2} << 20) | (((u >> 5) & 0x3FU) << 25) |
         (((u >> 12) & 1U) << 31);
}

u32 enc_u(u32 opc, u8 rd, i32 imm) {
  return opc | (u32{rd} << 7) | (static_cast<u32>(imm) & 0xFFFFF000U);
}

u32 enc_j(u32 opc, u8 rd, i32 imm) {
  MP3D_ASSERT_MSG(imm >= -(1 << 20) && imm < (1 << 20) && (imm & 1) == 0,
                  "J-immediate out of range: " << imm);
  const u32 u = static_cast<u32>(imm);
  return opc | (u32{rd} << 7) | (((u >> 12) & 0xFFU) << 12) | (((u >> 11) & 1U) << 20) |
         (((u >> 1) & 0x3FFU) << 21) | (((u >> 20) & 1U) << 31);
}

u32 enc_csr(u32 f3, u8 rd, u32 src, u16 csr) {
  return kOpcSystem | (u32{rd} << 7) | (f3 << 12) | (src << 15) | (u32{csr} << 20);
}

u32 enc_amo(u32 f5, u8 rd, u8 rs1, u8 rs2) {
  return enc_r(kOpcAmo, 0b010, f5 << 2, rd, rs1, rs2);
}

}  // namespace

u32 encode(const Instr& in) {
  switch (in.op) {
    case Op::kLui: return enc_u(kOpcLui, in.rd, in.imm);
    case Op::kAuipc: return enc_u(kOpcAuipc, in.rd, in.imm);
    case Op::kJal: return enc_j(kOpcJal, in.rd, in.imm);
    case Op::kJalr: return enc_i(kOpcJalr, 0, in.rd, in.rs1, in.imm);
    case Op::kBeq: return enc_b(kOpcBranch, 0, in.rs1, in.rs2, in.imm);
    case Op::kBne: return enc_b(kOpcBranch, 1, in.rs1, in.rs2, in.imm);
    case Op::kBlt: return enc_b(kOpcBranch, 4, in.rs1, in.rs2, in.imm);
    case Op::kBge: return enc_b(kOpcBranch, 5, in.rs1, in.rs2, in.imm);
    case Op::kBltu: return enc_b(kOpcBranch, 6, in.rs1, in.rs2, in.imm);
    case Op::kBgeu: return enc_b(kOpcBranch, 7, in.rs1, in.rs2, in.imm);
    case Op::kLb: return enc_i(kOpcLoad, 0, in.rd, in.rs1, in.imm);
    case Op::kLh: return enc_i(kOpcLoad, 1, in.rd, in.rs1, in.imm);
    case Op::kLw: return enc_i(kOpcLoad, 2, in.rd, in.rs1, in.imm);
    case Op::kLbu: return enc_i(kOpcLoad, 4, in.rd, in.rs1, in.imm);
    case Op::kLhu: return enc_i(kOpcLoad, 5, in.rd, in.rs1, in.imm);
    case Op::kSb: return enc_s(kOpcStore, 0, in.rs1, in.rs2, in.imm);
    case Op::kSh: return enc_s(kOpcStore, 1, in.rs1, in.rs2, in.imm);
    case Op::kSw: return enc_s(kOpcStore, 2, in.rs1, in.rs2, in.imm);
    case Op::kAddi: return enc_i(kOpcOpImm, 0, in.rd, in.rs1, in.imm);
    case Op::kSlti: return enc_i(kOpcOpImm, 2, in.rd, in.rs1, in.imm);
    case Op::kSltiu: return enc_i(kOpcOpImm, 3, in.rd, in.rs1, in.imm);
    case Op::kXori: return enc_i(kOpcOpImm, 4, in.rd, in.rs1, in.imm);
    case Op::kOri: return enc_i(kOpcOpImm, 6, in.rd, in.rs1, in.imm);
    case Op::kAndi: return enc_i(kOpcOpImm, 7, in.rd, in.rs1, in.imm);
    case Op::kSlli:
      return enc_r(kOpcOpImm, 1, 0, in.rd, in.rs1, static_cast<u8>(in.imm & 31));
    case Op::kSrli:
      return enc_r(kOpcOpImm, 5, 0, in.rd, in.rs1, static_cast<u8>(in.imm & 31));
    case Op::kSrai:
      return enc_r(kOpcOpImm, 5, 0b0100000, in.rd, in.rs1, static_cast<u8>(in.imm & 31));
    case Op::kAdd: return enc_r(kOpcOp, 0, 0, in.rd, in.rs1, in.rs2);
    case Op::kSub: return enc_r(kOpcOp, 0, 0b0100000, in.rd, in.rs1, in.rs2);
    case Op::kSll: return enc_r(kOpcOp, 1, 0, in.rd, in.rs1, in.rs2);
    case Op::kSlt: return enc_r(kOpcOp, 2, 0, in.rd, in.rs1, in.rs2);
    case Op::kSltu: return enc_r(kOpcOp, 3, 0, in.rd, in.rs1, in.rs2);
    case Op::kXor: return enc_r(kOpcOp, 4, 0, in.rd, in.rs1, in.rs2);
    case Op::kSrl: return enc_r(kOpcOp, 5, 0, in.rd, in.rs1, in.rs2);
    case Op::kSra: return enc_r(kOpcOp, 5, 0b0100000, in.rd, in.rs1, in.rs2);
    case Op::kOr: return enc_r(kOpcOp, 6, 0, in.rd, in.rs1, in.rs2);
    case Op::kAnd: return enc_r(kOpcOp, 7, 0, in.rd, in.rs1, in.rs2);
    case Op::kFence: return 0x0000000FU;
    case Op::kEcall: return 0x00000073U;
    case Op::kEbreak: return 0x00100073U;
    case Op::kWfi: return 0x10500073U;
    case Op::kMul: return enc_r(kOpcOp, 0, 1, in.rd, in.rs1, in.rs2);
    case Op::kMulh: return enc_r(kOpcOp, 1, 1, in.rd, in.rs1, in.rs2);
    case Op::kMulhsu: return enc_r(kOpcOp, 2, 1, in.rd, in.rs1, in.rs2);
    case Op::kMulhu: return enc_r(kOpcOp, 3, 1, in.rd, in.rs1, in.rs2);
    case Op::kDiv: return enc_r(kOpcOp, 4, 1, in.rd, in.rs1, in.rs2);
    case Op::kDivu: return enc_r(kOpcOp, 5, 1, in.rd, in.rs1, in.rs2);
    case Op::kRem: return enc_r(kOpcOp, 6, 1, in.rd, in.rs1, in.rs2);
    case Op::kRemu: return enc_r(kOpcOp, 7, 1, in.rd, in.rs1, in.rs2);
    case Op::kLrW: return enc_amo(0b00010, in.rd, in.rs1, 0);
    case Op::kScW: return enc_amo(0b00011, in.rd, in.rs1, in.rs2);
    case Op::kAmoSwapW: return enc_amo(0b00001, in.rd, in.rs1, in.rs2);
    case Op::kAmoAddW: return enc_amo(0b00000, in.rd, in.rs1, in.rs2);
    case Op::kAmoXorW: return enc_amo(0b00100, in.rd, in.rs1, in.rs2);
    case Op::kAmoAndW: return enc_amo(0b01100, in.rd, in.rs1, in.rs2);
    case Op::kAmoOrW: return enc_amo(0b01000, in.rd, in.rs1, in.rs2);
    case Op::kAmoMinW: return enc_amo(0b10000, in.rd, in.rs1, in.rs2);
    case Op::kAmoMaxW: return enc_amo(0b10100, in.rd, in.rs1, in.rs2);
    case Op::kAmoMinuW: return enc_amo(0b11000, in.rd, in.rs1, in.rs2);
    case Op::kAmoMaxuW: return enc_amo(0b11100, in.rd, in.rs1, in.rs2);
    case Op::kCsrrw: return enc_csr(1, in.rd, in.rs1, in.csr);
    case Op::kCsrrs: return enc_csr(2, in.rd, in.rs1, in.csr);
    case Op::kCsrrc: return enc_csr(3, in.rd, in.rs1, in.csr);
    case Op::kCsrrwi: return enc_csr(5, in.rd, static_cast<u32>(in.imm) & 31U, in.csr);
    case Op::kCsrrsi: return enc_csr(6, in.rd, static_cast<u32>(in.imm) & 31U, in.csr);
    case Op::kCsrrci: return enc_csr(7, in.rd, static_cast<u32>(in.imm) & 31U, in.csr);
    case Op::kPMac: return enc_r(kOpcOp, 0, 0b0100001, in.rd, in.rs1, in.rs2);
    case Op::kPMsu: return enc_r(kOpcOp, 1, 0b0100001, in.rd, in.rs1, in.rs2);
    case Op::kPMax: return enc_r(kOpcOp, 0, 0b0100010, in.rd, in.rs1, in.rs2);
    case Op::kPMin: return enc_r(kOpcOp, 1, 0b0100010, in.rd, in.rs1, in.rs2);
    case Op::kPAbs: return enc_r(kOpcOp, 2, 0b0100010, in.rd, in.rs1, 0);
    case Op::kPLwPost: return enc_i(kOpcCustom0, 0b010, in.rd, in.rs1, in.imm);
    case Op::kPLwRPost: return enc_r(kOpcCustom0, 0b110, 0, in.rd, in.rs1, in.rs2);
    case Op::kPSwPost: return enc_s(kOpcCustom1, 0b010, in.rs1, in.rs2, in.imm);
    case Op::kInvalid:
    case Op::kCount: break;
  }
  MP3D_UNREACHABLE("encode: invalid instruction");
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kInvalid: return "<invalid>";
    case Op::kLui: return "lui";
    case Op::kAuipc: return "auipc";
    case Op::kJal: return "jal";
    case Op::kJalr: return "jalr";
    case Op::kBeq: return "beq";
    case Op::kBne: return "bne";
    case Op::kBlt: return "blt";
    case Op::kBge: return "bge";
    case Op::kBltu: return "bltu";
    case Op::kBgeu: return "bgeu";
    case Op::kLb: return "lb";
    case Op::kLh: return "lh";
    case Op::kLw: return "lw";
    case Op::kLbu: return "lbu";
    case Op::kLhu: return "lhu";
    case Op::kSb: return "sb";
    case Op::kSh: return "sh";
    case Op::kSw: return "sw";
    case Op::kAddi: return "addi";
    case Op::kSlti: return "slti";
    case Op::kSltiu: return "sltiu";
    case Op::kXori: return "xori";
    case Op::kOri: return "ori";
    case Op::kAndi: return "andi";
    case Op::kSlli: return "slli";
    case Op::kSrli: return "srli";
    case Op::kSrai: return "srai";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kSll: return "sll";
    case Op::kSlt: return "slt";
    case Op::kSltu: return "sltu";
    case Op::kXor: return "xor";
    case Op::kSrl: return "srl";
    case Op::kSra: return "sra";
    case Op::kOr: return "or";
    case Op::kAnd: return "and";
    case Op::kFence: return "fence";
    case Op::kEcall: return "ecall";
    case Op::kEbreak: return "ebreak";
    case Op::kMul: return "mul";
    case Op::kMulh: return "mulh";
    case Op::kMulhsu: return "mulhsu";
    case Op::kMulhu: return "mulhu";
    case Op::kDiv: return "div";
    case Op::kDivu: return "divu";
    case Op::kRem: return "rem";
    case Op::kRemu: return "remu";
    case Op::kLrW: return "lr.w";
    case Op::kScW: return "sc.w";
    case Op::kAmoSwapW: return "amoswap.w";
    case Op::kAmoAddW: return "amoadd.w";
    case Op::kAmoXorW: return "amoxor.w";
    case Op::kAmoAndW: return "amoand.w";
    case Op::kAmoOrW: return "amoor.w";
    case Op::kAmoMinW: return "amomin.w";
    case Op::kAmoMaxW: return "amomax.w";
    case Op::kAmoMinuW: return "amominu.w";
    case Op::kAmoMaxuW: return "amomaxu.w";
    case Op::kCsrrw: return "csrrw";
    case Op::kCsrrs: return "csrrs";
    case Op::kCsrrc: return "csrrc";
    case Op::kCsrrwi: return "csrrwi";
    case Op::kCsrrsi: return "csrrsi";
    case Op::kCsrrci: return "csrrci";
    case Op::kWfi: return "wfi";
    case Op::kPMac: return "p.mac";
    case Op::kPMsu: return "p.msu";
    case Op::kPMax: return "p.max";
    case Op::kPMin: return "p.min";
    case Op::kPAbs: return "p.abs";
    case Op::kPLwPost: return "p.lw";
    case Op::kPLwRPost: return "p.lw";
    case Op::kPSwPost: return "p.sw";
    case Op::kCount: break;
  }
  return "<bad>";
}

}  // namespace mp3d::isa
