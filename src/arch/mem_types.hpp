// SPDX-License-Identifier: Apache-2.0
// Memory transaction types exchanged between cores, banks, the hierarchical
// interconnect, control peripherals and global memory.
#pragma once

#include "common/units.hpp"
#include "isa/instr.hpp"
#include "sim/types.hpp"

namespace mp3d::arch {

struct MemRequest {
  u32 addr = 0;
  u32 wdata = 0;
  isa::Op op = isa::Op::kInvalid;  ///< load/store/amo flavor
  u16 core = 0;      ///< global core id of the issuer
  u8 tag = 0;        ///< LSU slot tag
  sim::Cycle ready_at = 0;  ///< earliest cycle the current stage may act on it
};

struct MemResponse {
  u32 rdata = 0;
  u16 core = 0;
  u8 tag = 0;
};

/// Result of handing a request to the memory system in the current cycle.
enum class IssueResult : u8 {
  kAccepted,   ///< request is on its way
  kPortBusy,   ///< network/port back-pressure; retry next cycle
};

/// Target classification of an address.
enum class Region : u8 { kSpmSeq, kSpmInterleaved, kCtrl, kGmem, kInvalid };

/// Physical SPM bank coordinates.
struct BankTarget {
  u32 tile = 0;   ///< global tile index
  u32 bank = 0;   ///< bank within the tile
  u32 row = 0;    ///< word row within the bank
};

}  // namespace mp3d::arch
