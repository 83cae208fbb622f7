// SPDX-License-Identifier: Apache-2.0
#include "arch/bank.hpp"

#include "common/assert.hpp"

namespace mp3d::arch {

void SpmBank::serve(sim::Cycle now, BankRequest& request, std::span<u32> spm,
                    Reservations& reservations) {
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
  request.rdata = execute_word_op(request.op, request.lane, request.wdata, request.core,
                                  request.word, spm[request.word], reservations);
}

}  // namespace mp3d::arch
