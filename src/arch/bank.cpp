// SPDX-License-Identifier: Apache-2.0
#include "arch/bank.hpp"

#include "common/assert.hpp"

namespace mp3d::arch {

SpmBank::Entry SpmBank::serve(sim::Cycle now, std::span<u32> spm,
                              Reservations& reservations, u32 handle_shift) {
  MP3D_ASSERT(has_ready(now));
  Entry entry = queue_.pop_front();
  BankRequest& request = entry.request;
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
  if (now > entry.ready_at) {
    ++conflicts_;
    conflict_wait_cycles_ += now - entry.ready_at;
  }
  MP3D_ASSERT(request.word < spm.size());
  const auto core = static_cast<u16>(entry.handle >> handle_shift);
  request.data = execute_word_op(request.op, request.lane, request.data, core, request.word,
                                 spm[request.word], reservations);
  return entry;
}

}  // namespace mp3d::arch
