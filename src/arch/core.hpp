// SPDX-License-Identifier: Apache-2.0
// Snitch-like core model: single-issue, in-order, with a register
// scoreboard and a non-blocking LSU supporting multiple outstanding
// requests — the latency-tolerance mechanism MemPool relies on to hide its
// 1/3/5-cycle SPM access hierarchy.
//
// Timing model:
//   - one instruction issued per cycle when no hazard stalls;
//   - RAW/WAW hazards stall until the producing value is ready (a mask of
//     registers with a load in flight, plus per-register ready cycles for
//     multi-cycle mul/div results);
//   - taken branches/jumps pay a configurable flush penalty;
//   - memory operations allocate an LSU slot; the memory system may also
//     back-pressure (port busy), retried the next cycle;
//   - `fence` drains the LSU (used by the runtime before barriers);
//   - `wfi` sleeps until a wake-up token arrives (cluster wake-up unit).
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "arch/decoded_image.hpp"
#include "arch/icache.hpp"
#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "common/assert.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::arch {

class Cluster;

enum class CoreState : u8 { kRunning, kWfi, kHalted, kError };

/// Why a step stalled on a memory response. Only a response can end such a
/// stall, so the cluster stops stepping the core until one arrives (it
/// "parks" it) and charges each waiting cycle in bulk, per reason.
enum class Wait : u8 {
  kNone,     ///< not waiting on a response
  kRaw,      ///< an operand or the destination has a load in flight
  kLsuFull,  ///< every LSU slot holds an outstanding request
  kFence,    ///< fence with requests outstanding
};
inline constexpr std::size_t kNumWaits = 3;  ///< reasons other than kNone
/// Index of a reason other than kNone in per-reason arrays.
inline constexpr std::size_t wait_index(Wait wait) { return static_cast<std::size_t>(wait) - 1; }

class SnitchCore {
 public:
  SnitchCore(const ClusterConfig& cfg, u16 global_id, u32 tile_id);

  /// Connect the core to its cluster (the memory system it issues into and
  /// the occupancy count its sleep, wake and halt transitions update), its
  /// tile's instruction cache and the decoded program image.
  void attach(Cluster* cluster, TileICache* icache, const DecodedImage* image);

  /// Reset architectural state and start at `pc` with stack pointer `sp`.
  void reset(u32 pc, u32 sp);

  /// Advance one cycle; returns whether an instruction retired.
  bool step(sim::Cycle now);
  /// Retire the LSU slot `resp.tag`, writing back its load or AMO result.
  void deliver(const MemResponse& resp) {
    MP3D_ASSERT(resp.tag < lsu_rd_.size());
    const u32 slot = 1U << resp.tag;
    MP3D_ASSERT_MSG((lsu_busy_ & slot) != 0,
                    "response for free LSU slot on core " << global_id_);
    // Only loads and AMOs name a destination (stores leave the slot's rd 0).
    if (const u8 rd = lsu_rd_[resp.tag]; rd != 0) {
      regs_[rd] = resp.rdata;
      loads_pending_ &= ~(1U << rd);
    }
    lsu_busy_ &= ~slot;
  }
  /// Post a wake-up token (consumed by wfi; saturating at 1).
  void wake(sim::Cycle now);

  /// Why the last step stalled on a memory response (Wait::kNone if it did
  /// not). Set by step(), kept until resume(): a waiting core's next step
  /// would repeat the same stall (an icache hit plus this stall counter)
  /// until a response arrives, unless its icache line is evicted.
  Wait wait() const { return wait_; }
  /// Clear the response wait (the core is stepped again).
  void resume() { wait_ = Wait::kNone; }

  // ---- state queries -------------------------------------------------------
  CoreState state() const { return state_; }
  bool halted() const { return state_ == CoreState::kHalted || state_ == CoreState::kError; }
  bool asleep() const { return state_ == CoreState::kWfi; }
  /// True when step() would make progress: running, or sleeping with a
  /// pending wake token (resumes on its next step). The cluster's awake
  /// count tracks exactly this predicate (a waiting core counts as awake).
  bool runnable() const {
    return state_ == CoreState::kRunning ||
           (state_ == CoreState::kWfi && wake_tokens_ > 0);
  }
  u32 exit_code() const { return exit_code_; }
  u16 global_id() const { return global_id_; }
  u32 tile_id() const { return tile_id_; }
  u64 instret() const { return instret_; }
  u32 pc() const { return pc_; }
  u32 reg(u32 r) const { return regs_[r]; }
  bool lsu_idle() const { return lsu_busy_ == 0; }
  std::string error_message() const { return error_; }

  /// External fault injection (invalid address, bus error, ...).
  void fault(const std::string& message) { halt_error(message); }

  /// Merge this core's microarchitectural counters into `counters`.
  void add_counters(sim::CounterSet& counters) const;

  /// Attach the event trace (nullptr detaches); `track` is this core's
  /// timeline row. Emits "wfi" spans over sleep intervals.
  void set_trace(obs::Trace* trace, u32 track);
  /// End an open wfi span at `now` (run teardown) so traces stay balanced.
  void close_trace_span(sim::Cycle now);

 private:
  /// Execute a non-memory instruction; returns whether it retired.
  bool execute(const isa::Instr& instr, sim::Cycle now);
  /// A hazard on a mul/div result still in flight (pre: one is).
  bool long_op_hazard(u32 regs, sim::Cycle now) const;
  bool issue_memory_op(const DecodedInstr& decoded);
  u32 csr_read(u16 csr, sim::Cycle now) const;
  void csr_write(u16 csr, u32 value);
  void halt_error(const std::string& message);

  // Hot state, read by every step, kept together at the front.
  CoreState state_ = CoreState::kHalted;
  Wait wait_ = Wait::kNone;
  u32 pc_ = 0;
  u32 loads_pending_ = 0;  ///< registers with a load in flight (bit r = x<r>)
  u32 lsu_busy_ = 0;       ///< LSU slots holding a request (bit i = slot i)
  sim::Cycle stall_until_ = 0;    ///< end of a taken branch/jump's flush
  sim::Cycle long_op_until_ = 0;  ///< latest ready cycle of a mul/div result
  TileICache* icache_ = nullptr;
  const DecodedImage* image_ = nullptr;
  Cluster* cluster_ = nullptr;
  u64 instret_ = 0;
  u64 stall_raw_ = 0;
  u64 stall_flush_ = 0;
  u32 wake_tokens_ = 0;

  // Architectural state.
  std::array<u32, 32> regs_{};
  /// Destination register per LSU slot (0 = none: stores).
  std::array<u8, 32> lsu_rd_{};
  /// Ready cycle of each register's last mul/div result; read only while
  /// long_op_until_ lies ahead (every other result is ready at once).
  std::array<sim::Cycle, 32> reg_ready_{};

  // Configuration (copied scalars for hot-loop friendliness).
  u32 taken_branch_penalty_;
  u32 jump_penalty_;
  u32 div_latency_;
  u32 mul_latency_;
  u32 lsu_slots_mask_;  ///< one bit per usable LSU slot

  u16 global_id_;
  u32 tile_id_;

  u32 exit_code_ = 0;
  std::string error_;

  // Colder counters.
  u64 stall_lsu_full_ = 0;
  u64 stall_port_busy_ = 0;
  u64 stall_fetch_ = 0;
  u64 stall_fence_ = 0;
  u64 wfi_cycles_ = 0;
  u64 mem_ops_ = 0;
  u64 mac_ops_ = 0;

  obs::Trace* trace_ = nullptr;  ///< optional event trace (null = off)
  u32 track_ = 0;
  u32 ev_wfi_ = 0;
};

}  // namespace mp3d::arch
