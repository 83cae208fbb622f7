// SPDX-License-Identifier: Apache-2.0
#include "arch/bank.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::arch {

std::optional<MemResponse> SpmBank::serve(sim::Cycle now, std::vector<u32>& spm) {
  if (!has_ready(now)) {
    return std::nullopt;
  }
  const BankRequest request = queue_.pop_front();
  ++accesses_;
  // Array activation accounting: loads read, stores write, AMOs and lr/sc
  // do both (the bank reads the old word and writes the new one).
  if (isa::is_amo(request.req.op)) {
    ++reads_;
    ++writes_;
  } else if (isa::is_store(request.req.op)) {
    ++writes_;
  } else {
    ++reads_;
  }
  if (now > request.req.ready_at) {
    ++conflicts_;
    conflict_wait_cycles_ += now - request.req.ready_at;
  }
  MemResponse resp;
  resp.core = request.req.core;
  resp.tag = request.req.tag;
  resp.is_store = isa::is_store(request.req.op);
  MP3D_ASSERT(request.word < spm.size());
  resp.rdata = execute(request, spm[request.word]);
  resp.ready_at = now;
  return resp;
}

u32 SpmBank::execute(const BankRequest& request, u32& word) {
  using isa::Op;
  const MemRequest& req = request.req;
  const u32 shift = (req.addr & 3U) * 8;

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
      MP3D_ASSERT((req.addr & 1U) == 0);
      u32 v = (word >> shift) & 0xFFFFU;
      if (req.op == Op::kLh) {
        v = static_cast<u32>(static_cast<i32>(v << 16) >> 16);
      }
      return v;
    }
    case Op::kLw:
    case Op::kPLwPost:
    case Op::kPLwRPost:
      MP3D_ASSERT((req.addr & 3U) == 0);
      return word;
    case Op::kSb: {
      const u32 mask = 0xFFU << shift;
      word = (word & ~mask) | ((req.wdata & 0xFFU) << shift);
      invalidate_other_reservations(request.word, req.core);
      return 0;
    }
    case Op::kSh: {
      const u32 mask = 0xFFFFU << shift;
      word = (word & ~mask) | ((req.wdata & 0xFFFFU) << shift);
      invalidate_other_reservations(request.word, req.core);
      return 0;
    }
    case Op::kSw:
    case Op::kPSwPost:
      word = req.wdata;
      invalidate_other_reservations(request.word, req.core);
      return 0;
    case Op::kLrW: {
      drop_reservation(request.word, req.core);
      reservations_.emplace_back(request.word, req.core);
      return word;
    }
    case Op::kScW: {
      const bool reserved =
          std::any_of(reservations_.begin(), reservations_.end(), [&](const auto& r) {
            return r.first == request.word && r.second == req.core;
          });
      drop_reservation(request.word, req.core);
      if (!reserved) {
        return 1;  // failure
      }
      word = req.wdata;
      invalidate_other_reservations(request.word, req.core);
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
      invalidate_other_reservations(request.word, req.core);
      return old;
    }
  }
}

}  // namespace mp3d::arch
