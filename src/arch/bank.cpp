// SPDX-License-Identifier: Apache-2.0
#include "arch/bank.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::arch {

void SpmBank::serve(sim::Cycle now, BankRequest& request, std::span<u32> spm) {
  MP3D_ASSERT(has_ready(now));
  const sim::Cycle arrived = queue_.pop_front().ready_at;
  ++accesses_;
  // Array activation accounting: loads read, stores write, AMOs and lr/sc
  // do both (the bank reads the old word and writes the new one).
  if (isa::is_amo(request.op)) {
    ++reads_;
    ++writes_;
  } else if (isa::is_store(request.op)) {
    ++writes_;
  } else {
    ++reads_;
  }
  if (now > arrived) {
    ++conflicts_;
    conflict_wait_cycles_ += now - arrived;
  }
  MP3D_ASSERT(request.word < spm.size());
  request.rdata = execute(request, spm[request.word]);
}

u32 SpmBank::execute(const BankRequest& req, u32& word) {
  using isa::Op;
  const u32 shift = req.lane * 8U;

  auto invalidate_other_reservations = [&](u32 index, u16 writer) {
    reservations_.erase(
        std::remove_if(reservations_.begin(), reservations_.end(),
                       [&](const auto& r) { return r.first == index && r.second != writer; }),
        reservations_.end());
  };
  auto drop_reservation = [&](u32 index, u16 core) {
    reservations_.erase(
        std::remove_if(reservations_.begin(), reservations_.end(),
                       [&](const auto& r) { return r.first == index && r.second == core; }),
        reservations_.end());
  };

  switch (req.op) {
    case Op::kLb:
    case Op::kLbu: {
      u32 v = (word >> shift) & 0xFFU;
      if (req.op == Op::kLb) {
        v = static_cast<u32>(static_cast<i32>(v << 24) >> 24);
      }
      return v;
    }
    case Op::kLh:
    case Op::kLhu: {
      MP3D_ASSERT((req.lane & 1U) == 0);
      u32 v = (word >> shift) & 0xFFFFU;
      if (req.op == Op::kLh) {
        v = static_cast<u32>(static_cast<i32>(v << 16) >> 16);
      }
      return v;
    }
    case Op::kLw:
    case Op::kPLwPost:
    case Op::kPLwRPost:
      MP3D_ASSERT(req.lane == 0);
      return word;
    case Op::kSb: {
      const u32 mask = 0xFFU << shift;
      word = (word & ~mask) | ((req.wdata & 0xFFU) << shift);
      invalidate_other_reservations(req.word, req.core);
      return 0;
    }
    case Op::kSh: {
      const u32 mask = 0xFFFFU << shift;
      word = (word & ~mask) | ((req.wdata & 0xFFFFU) << shift);
      invalidate_other_reservations(req.word, req.core);
      return 0;
    }
    case Op::kSw:
    case Op::kPSwPost:
      word = req.wdata;
      invalidate_other_reservations(req.word, req.core);
      return 0;
    case Op::kLrW: {
      drop_reservation(req.word, req.core);
      reservations_.emplace_back(req.word, req.core);
      return word;
    }
    case Op::kScW: {
      const bool reserved =
          std::any_of(reservations_.begin(), reservations_.end(), [&](const auto& r) {
            return r.first == req.word && r.second == req.core;
          });
      drop_reservation(req.word, req.core);
      if (!reserved) {
        return 1;  // failure
      }
      word = req.wdata;
      invalidate_other_reservations(req.word, req.core);
      return 0;  // success
    }
    default: {
      // AMOs: read-modify-write, atomic because the bank serves one request
      // per cycle.
      const u32 old = word;
      const i32 olds = static_cast<i32>(old);
      const i32 rhs = static_cast<i32>(req.wdata);
      switch (req.op) {
        case Op::kAmoSwapW: word = req.wdata; break;
        case Op::kAmoAddW: word = old + req.wdata; break;
        case Op::kAmoXorW: word = old ^ req.wdata; break;
        case Op::kAmoAndW: word = old & req.wdata; break;
        case Op::kAmoOrW: word = old | req.wdata; break;
        case Op::kAmoMinW: word = static_cast<u32>(std::min(olds, rhs)); break;
        case Op::kAmoMaxW: word = static_cast<u32>(std::max(olds, rhs)); break;
        case Op::kAmoMinuW: word = std::min(old, req.wdata); break;
        case Op::kAmoMaxuW: word = std::max(old, req.wdata); break;
        default: MP3D_UNREACHABLE("unsupported bank op");
      }
      invalidate_other_reservations(req.word, req.core);
      return old;
    }
  }
}

}  // namespace mp3d::arch
