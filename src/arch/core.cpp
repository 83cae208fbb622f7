// SPDX-License-Identifier: Apache-2.0
#include "arch/core.hpp"

#include <algorithm>
#include <bit>

#include "arch/cluster.hpp"
#include "common/assert.hpp"
#include "isa/disasm.hpp"
#include "obs/trace.hpp"

namespace mp3d::arch {

using isa::Instr;
using isa::Op;

SnitchCore::SnitchCore(const ClusterConfig& cfg, u16 global_id, u32 tile_id)
    : taken_branch_penalty_(cfg.taken_branch_penalty),
      jump_penalty_(cfg.jump_penalty),
      div_latency_(cfg.div_latency),
      mul_latency_(cfg.mul_latency),
      lsu_slots_mask_(cfg.lsu_max_outstanding >= 32
                          ? ~0U
                          : (1U << cfg.lsu_max_outstanding) - 1),
      global_id_(global_id),
      tile_id_(tile_id) {}

void SnitchCore::attach(Cluster* cluster, TileICache* icache, const DecodedImage* image) {
  cluster_ = cluster;
  icache_ = icache;
  image_ = image;
}

void SnitchCore::reset(u32 pc, u32 sp) {
  regs_.fill(0);
  reg_ready_.fill(0);
  lsu_rd_.fill(0);
  lsu_busy_ = 0;
  loads_pending_ = 0;
  long_op_until_ = 0;
  wait_ = Wait::kNone;
  pc_ = pc;
  regs_[2] = sp;
  state_ = CoreState::kRunning;
  exit_code_ = 0;
  error_.clear();
  wake_tokens_ = 0;
  stall_until_ = 0;
  instret_ = 0;
  stall_raw_ = 0;
  stall_lsu_full_ = 0;
  stall_port_busy_ = 0;
  stall_fetch_ = 0;
  stall_fence_ = 0;
  stall_flush_ = 0;
  wfi_cycles_ = 0;
  mem_ops_ = 0;
  mac_ops_ = 0;
}

void SnitchCore::wake(sim::Cycle /*now*/) {
  if (cluster_ != nullptr && state_ == CoreState::kWfi && wake_tokens_ == 0) {
    cluster_->note_core_awake(global_id_);
  }
  wake_tokens_ = std::min(wake_tokens_ + 1, 1U);
}

bool SnitchCore::long_op_hazard(u32 regs, sim::Cycle now) const {
  for (; regs != 0; regs &= regs - 1) {
    if (reg_ready_[std::countr_zero(regs)] > now) {
      return true;
    }
  }
  return false;
}

bool SnitchCore::step(sim::Cycle now) {
  if (state_ != CoreState::kRunning) {
    if (halted()) {
      return false;
    }
    if (wake_tokens_ == 0) {
      ++wfi_cycles_;
      return false;
    }
    --wake_tokens_;
    state_ = CoreState::kRunning;
    if (trace_ != nullptr) {
      trace_->end(track_, ev_wfi_, now);
    }
  }
  if (now < stall_until_) {
    ++stall_flush_;
    return false;
  }
  // ---- fetch ----------------------------------------------------------------
  if (!icache_->present(pc_)) {
    if (!icache_->miss_pending(pc_)) {
      icache_->count_miss();
      cluster_->request_icache_refill(tile_id_, pc_);
    }
    ++stall_fetch_;
    return false;
  }
  icache_->count_hit();
  const DecodedInstr* decoded = image_->lookup(pc_);
  if (decoded == nullptr) {
    halt_error("fetch outside program image at pc=0x" + std::to_string(pc_));
    return false;
  }
  if (!decoded->instr.valid()) {
    halt_error("illegal instruction at pc=0x" + std::to_string(pc_));
    return false;
  }
  // ---- hazards ----------------------------------------------------------------
  // One AND against the loads in flight; the per-register ready cycles
  // matter only while a multi-cycle mul/div result is outstanding.
  if ((decoded->hazard_regs & loads_pending_) != 0) {
    ++stall_raw_;
    wait_ = Wait::kRaw;
    return false;
  }
  if (now < long_op_until_ && long_op_hazard(decoded->hazard_regs, now)) {
    ++stall_raw_;
    return false;
  }
  if (decoded->is_mem) {
    if (!issue_memory_op(*decoded)) {
      return false;  // stall recorded; retry next cycle
    }
    pc_ += 4;
    ++instret_;
    return true;
  }
  return execute(decoded->instr, now);
}

bool SnitchCore::issue_memory_op(const DecodedInstr& d) {
  const u32 free_slots = ~lsu_busy_ & lsu_slots_mask_;
  if (free_slots == 0) {
    ++stall_lsu_full_;
    wait_ = Wait::kLsuFull;
    return false;
  }
  const auto tag = static_cast<u8>(std::countr_zero(free_slots));
  const Instr& in = d.instr;
  MemRequest req;
  req.addr = regs_[in.rs1] + d.addr_offset;
  req.wdata = d.has_wdata ? regs_[in.rs2] : 0;
  req.op = in.op;
  req.core = global_id_;
  req.tag = tag;
  if (cluster_->issue_mem(req) == IssueResult::kPortBusy) {
    ++stall_port_busy_;
    return false;
  }

  // Accepted: commit side effects.
  lsu_rd_[tag] = d.mem_rd;
  lsu_busy_ |= 1U << tag;
  ++mem_ops_;
  if (d.mem_rd != 0) {
    loads_pending_ |= 1U << d.mem_rd;
  }
  // Post-increment address update happens in the AGU at issue; the base is
  // ready at once, even when it is also the load's destination.
  if (d.post_increment != PostIncrement::kNone) {
    regs_[in.rs1] += d.post_increment == PostIncrement::kReg ? regs_[in.rs2]
                                                             : static_cast<u32>(in.imm);
    loads_pending_ &= ~(1U << in.rs1);
  }
  return true;
}

bool SnitchCore::execute(const Instr& in, sim::Cycle now) {
  const u32 a = regs_[in.rs1];
  const u32 b = regs_[in.rs2];
  const i32 as = static_cast<i32>(a);
  const i32 bs = static_cast<i32>(b);
  u32 next_pc = pc_ + 4;
  bool wrote = false;
  u32 value = 0;
  sim::Cycle ready = now;

  switch (in.op) {
    case Op::kLui: value = static_cast<u32>(in.imm); wrote = true; break;
    case Op::kAuipc: value = pc_ + static_cast<u32>(in.imm); wrote = true; break;
    case Op::kJal:
      value = pc_ + 4;
      wrote = true;
      next_pc = pc_ + static_cast<u32>(in.imm);
      stall_until_ = now + 1 + jump_penalty_;
      break;
    case Op::kJalr:
      value = pc_ + 4;
      wrote = true;
      next_pc = (a + static_cast<u32>(in.imm)) & ~1U;
      stall_until_ = now + 1 + jump_penalty_;
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu: {
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = a == b; break;
        case Op::kBne: taken = a != b; break;
        case Op::kBlt: taken = as < bs; break;
        case Op::kBge: taken = as >= bs; break;
        case Op::kBltu: taken = a < b; break;
        case Op::kBgeu: taken = a >= b; break;
        default: break;
      }
      if (taken) {
        next_pc = pc_ + static_cast<u32>(in.imm);
        stall_until_ = now + 1 + taken_branch_penalty_;
      }
      break;
    }
    case Op::kAddi: value = a + static_cast<u32>(in.imm); wrote = true; break;
    case Op::kSlti: value = as < in.imm ? 1 : 0; wrote = true; break;
    case Op::kSltiu: value = a < static_cast<u32>(in.imm) ? 1 : 0; wrote = true; break;
    case Op::kXori: value = a ^ static_cast<u32>(in.imm); wrote = true; break;
    case Op::kOri: value = a | static_cast<u32>(in.imm); wrote = true; break;
    case Op::kAndi: value = a & static_cast<u32>(in.imm); wrote = true; break;
    case Op::kSlli: value = a << (in.imm & 31); wrote = true; break;
    case Op::kSrli: value = a >> (in.imm & 31); wrote = true; break;
    case Op::kSrai: value = static_cast<u32>(as >> (in.imm & 31)); wrote = true; break;
    case Op::kAdd: value = a + b; wrote = true; break;
    case Op::kSub: value = a - b; wrote = true; break;
    case Op::kSll: value = a << (b & 31); wrote = true; break;
    case Op::kSlt: value = as < bs ? 1 : 0; wrote = true; break;
    case Op::kSltu: value = a < b ? 1 : 0; wrote = true; break;
    case Op::kXor: value = a ^ b; wrote = true; break;
    case Op::kSrl: value = a >> (b & 31); wrote = true; break;
    case Op::kSra: value = static_cast<u32>(as >> (b & 31)); wrote = true; break;
    case Op::kOr: value = a | b; wrote = true; break;
    case Op::kAnd: value = a & b; wrote = true; break;
    case Op::kMul:
      value = a * b;
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulh:
      value = static_cast<u32>((static_cast<i64>(as) * static_cast<i64>(bs)) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulhsu:
      value = static_cast<u32>((static_cast<i64>(as) * static_cast<i64>(static_cast<u64>(b))) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulhu:
      value = static_cast<u32>((static_cast<u64>(a) * static_cast<u64>(b)) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kDiv:
      value = b == 0 ? 0xFFFFFFFFU
                     : (as == INT32_MIN && bs == -1 ? static_cast<u32>(INT32_MIN)
                                                    : static_cast<u32>(as / bs));
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kDivu:
      value = b == 0 ? 0xFFFFFFFFU : a / b;
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kRem:
      value = b == 0 ? a
                     : (as == INT32_MIN && bs == -1 ? 0 : static_cast<u32>(as % bs));
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kRemu:
      value = b == 0 ? a : a % b;
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kPMac:
      value = regs_[in.rd] + a * b;
      wrote = true;
      ++mac_ops_;
      break;
    case Op::kPMsu:
      value = regs_[in.rd] - a * b;
      wrote = true;
      ++mac_ops_;
      break;
    case Op::kPMax: value = static_cast<u32>(std::max(as, bs)); wrote = true; break;
    case Op::kPMin: value = static_cast<u32>(std::min(as, bs)); wrote = true; break;
    case Op::kPAbs: value = static_cast<u32>(as < 0 ? -as : as); wrote = true; break;
    case Op::kFence:
      if (lsu_busy_ != 0) {
        ++stall_fence_;
        wait_ = Wait::kFence;
        return false;  // keep pc, retry
      }
      break;
    case Op::kEcall:
      state_ = CoreState::kHalted;
      exit_code_ = regs_[10];
      ++instret_;
      if (cluster_ != nullptr) {
        cluster_->note_core_halted(global_id_, /*was_awake=*/true);
      }
      return true;
    case Op::kEbreak:
      halt_error("ebreak executed at pc=0x" + std::to_string(pc_));
      return false;
    case Op::kWfi:
      if (wake_tokens_ > 0) {
        --wake_tokens_;
      } else {
        state_ = CoreState::kWfi;
        if (cluster_ != nullptr) {
          cluster_->note_core_asleep(global_id_);
        }
        if (trace_ != nullptr) {
          trace_->begin(track_, ev_wfi_, now);
        }
      }
      break;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc: {
      const u32 old = csr_read(in.csr, now);
      if (in.op == Op::kCsrrw) {
        csr_write(in.csr, a);
      } else if (in.rs1 != 0) {
        csr_write(in.csr, in.op == Op::kCsrrs ? (old | a) : (old & ~a));
      }
      value = old;
      wrote = in.rd != 0;
      break;
    }
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: {
      const u32 old = csr_read(in.csr, now);
      const auto imm = static_cast<u32>(in.imm);
      if (in.op == Op::kCsrrwi) {
        csr_write(in.csr, imm);
      } else if (imm != 0) {
        csr_write(in.csr, in.op == Op::kCsrrsi ? (old | imm) : (old & ~imm));
      }
      value = old;
      wrote = in.rd != 0;
      break;
    }
    default:
      halt_error(std::string("unimplemented op ") + isa::op_name(in.op));
      return false;
  }

  if (wrote && in.rd != 0) {
    regs_[in.rd] = value;
    if (ready > now) {  // multi-cycle mul/div: the result lands later
      reg_ready_[in.rd] = ready;
      long_op_until_ = std::max(long_op_until_, ready);
    }
  }
  pc_ = next_pc;
  ++instret_;
  return true;
}

u32 SnitchCore::csr_read(u16 csr, sim::Cycle now) const {
  switch (csr) {
    case isa::kCsrMHartId: return global_id_;
    case isa::kCsrMCycle: return static_cast<u32>(now);
    case isa::kCsrMInstret: return static_cast<u32>(instret_);
    default: return 0;
  }
}

void SnitchCore::csr_write(u16 /*csr*/, u32 /*value*/) {
  // All implemented CSRs are read-only; writes are ignored (WARL).
}

void SnitchCore::halt_error(const std::string& message) {
  const bool was_awake = runnable();
  const bool was_halted = halted();
  state_ = CoreState::kError;
  error_ = message;
  exit_code_ = 0xDEAD;
  if (cluster_ != nullptr && !was_halted) {
    cluster_->note_core_halted(global_id_, was_awake);
  }
}

void SnitchCore::set_trace(obs::Trace* trace, u32 track) {
  trace_ = trace;
  track_ = track;
  if (trace_ != nullptr) {
    ev_wfi_ = trace_->intern("wfi");
  }
}

void SnitchCore::close_trace_span(sim::Cycle now) {
  if (trace_ != nullptr && state_ == CoreState::kWfi) {
    trace_->end(track_, ev_wfi_, now);
  }
}

void SnitchCore::add_counters(sim::CounterSet& counters) const {
  counters.bump("core.instret", instret_);
  counters.bump("core.stall_raw", stall_raw_);
  counters.bump("core.stall_lsu_full", stall_lsu_full_);
  counters.bump("core.stall_port_busy", stall_port_busy_);
  counters.bump("core.stall_fetch", stall_fetch_);
  counters.bump("core.stall_fence", stall_fence_);
  counters.bump("core.stall_flush", stall_flush_);
  counters.bump("core.wfi_cycles", wfi_cycles_);
  counters.bump("core.mem_ops", mem_ops_);
  counters.bump("core.mac_ops", mac_ops_);
}

}  // namespace mp3d::arch
