// SPDX-License-Identifier: Apache-2.0
// What a memory does to one word: the one implementation of loads, byte
// and half-word merges, the nine AMOs and LR/SC, shared by the SPM banks
// and global memory. Each memory keeps one Reservations table, indexed by
// its word index, and hands it to execute_word_op with the word.
//
// LR/SC follows the RISC-V A extension within one memory: a core holds at
// most one reservation there.
//   - lr.w by core c on word w drops c's reservation, then reserves (w, c).
//   - sc.w by c on w succeeds only while (w, c) is held, and drops c's
//     reservation either way.
//   - A store, an AMO or a successful sc.w by c on w drops every other
//     core's reservation on w; c keeps its own.
//   - A functional write (host backdoor, DMA) drops every reservation on
//     the words it writes (Reservations::drop_words).
// One deviation from the ISA: the SPM and global memory keep separate
// tables, so a core may hold one reservation in each at the same time.
//
// Alignment is checked where a request enters the memory system:
// Cluster::issue_mem faults the core on a misaligned access, so a word
// access reaches a memory at lane 0 and a half-word access at lane 0 or 2.
#pragma once

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "isa/instr.hpp"

namespace mp3d::arch {

/// The LR/SC reservations of one memory, as (word index, core) pairs with
/// at most one per core. No kernel takes one, so on every benchmarked run
/// the table is empty and written() and drop_words() cost one branch.
class Reservations {
 public:
  /// lr.w by `core` on `word`: the core's reservation moves to `word`.
  void reserve(u32 word, u16 core) {
    release(word, core);
    held_.push_back(Held{word, core});
  }
  /// sc.w by `core` on `word`: drop the core's reservation and report
  /// whether it was on `word`.
  bool release(u32 word, u16 core) {
    const auto it = std::find_if(held_.begin(), held_.end(),
                                 [&](const Held& r) { return r.core == core; });
    if (it == held_.end()) {
      return false;
    }
    const bool on_word = it->word == word;
    held_.erase(it);
    return on_word;
  }
  /// `word` was written by `core` (a store, an AMO or a successful sc.w):
  /// drop every other core's reservation on it.
  void written(u32 word, u16 core) {
    if (!held_.empty()) {
      std::erase_if(held_, [&](const Held& r) { return r.word == word && r.core != core; });
    }
  }
  /// A functional write of words [first, first + count): drop every
  /// reservation on them.
  void drop_words(u64 first, u64 count) {
    if (!held_.empty()) {
      std::erase_if(held_, [&](const Held& r) { return r.word - first < count; });
    }
  }
  void clear() { held_.clear(); }

 private:
  struct Held {
    u32 word;
    u16 core;
  };
  std::vector<Held> held_;
};

/// Execute memory op `op` by `core` on `word`, the word with index `index`
/// in a memory whose reservations are `reservations`; `lane` is the byte
/// offset of the address in the word (pre: aligned for `op`). Returns the
/// response word: a load's value extended to 32 bits, 0 for a store or a
/// successful sc.w, 1 for a failed sc.w, and the old word for lr.w and the
/// other AMOs.
inline u32 execute_word_op(isa::Op op, u32 lane, u32 wdata, u16 core, u32 index, u32& word,
                           Reservations& reservations) {
  using isa::Op;
  const u32 shift = lane * 8U;
  const u32 old = word;
  switch (op) {
    case Op::kLw:
    case Op::kPLwPost:
    case Op::kPLwRPost:
      return old;
    case Op::kLbu:
      return (old >> shift) & 0xFFU;
    case Op::kLb:
      return static_cast<u32>(static_cast<i32>(old >> shift << 24) >> 24);
    case Op::kLhu:
      return (old >> shift) & 0xFFFFU;
    case Op::kLh:
      return static_cast<u32>(static_cast<i32>(old >> shift << 16) >> 16);
    case Op::kLrW:
      reservations.reserve(index, core);
      return old;
    case Op::kScW:
      if (!reservations.release(index, core)) {
        return 1;
      }
      word = wdata;
      break;
    case Op::kSb:
      word = (old & ~(0xFFU << shift)) | ((wdata & 0xFFU) << shift);
      break;
    case Op::kSh:
      word = (old & ~(0xFFFFU << shift)) | ((wdata & 0xFFFFU) << shift);
      break;
    case Op::kSw:
    case Op::kPSwPost:
    case Op::kAmoSwapW:
      word = wdata;
      break;
    case Op::kAmoAddW: word = old + wdata; break;
    case Op::kAmoXorW: word = old ^ wdata; break;
    case Op::kAmoAndW: word = old & wdata; break;
    case Op::kAmoOrW: word = old | wdata; break;
    case Op::kAmoMinW:
      word = static_cast<u32>(std::min(static_cast<i32>(old), static_cast<i32>(wdata)));
      break;
    case Op::kAmoMaxW:
      word = static_cast<u32>(std::max(static_cast<i32>(old), static_cast<i32>(wdata)));
      break;
    case Op::kAmoMinuW: word = std::min(old, wdata); break;
    case Op::kAmoMaxuW: word = std::max(old, wdata); break;
    default: MP3D_UNREACHABLE("not a memory op");
  }
  reservations.written(index, core);
  return isa::is_store(op) || op == Op::kScW ? 0 : old;
}

}  // namespace mp3d::arch
