// SPDX-License-Identifier: Apache-2.0
// The MemPool cluster: cores, SPM banks, instruction caches, hierarchical
// interconnect, control peripherals, per-group DMA engines and
// bandwidth-limited global memory, advanced together in a fixed per-cycle
// phase order:
//
//   global memory -> DMA engines -> request network -> banks/ctrl
//     -> response network -> cores
//
// The DMA engines run directly after global memory so bulk transfers claim
// whatever byte budget the cycle's scalar traffic left over.
//
// This ordering yields the paper's zero-load latencies exactly: a local SPM
// access issued in cycle n writes back in n+1 (1 cycle), a same-group
// access in n+3, a remote-group access in n+5.
#pragma once

#include <array>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/addr_map.hpp"
#include "arch/bank.hpp"
#include "arch/core.hpp"
#include "arch/decoded_image.hpp"
#include "arch/dma.hpp"
#include "arch/global_mem.hpp"
#include "arch/icache.hpp"
#include "arch/interconnect.hpp"
#include "arch/params.hpp"
#include "isa/program.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Telemetry;
class Trace;
}

namespace mp3d::prof {
class StepProfiler;
}

namespace mp3d::qos {
class AdaptiveShareController;
}

namespace mp3d::arch {

/// Control-peripheral register offsets (relative to ClusterConfig::ctrl_base).
namespace ctrl {
inline constexpr u32 kEoc = 0x00;        ///< W: end of computation, value = code
inline constexpr u32 kWakeOne = 0x04;    ///< W: wake core <value>
inline constexpr u32 kWakeAll = 0x08;    ///< W: wake every core except writer
inline constexpr u32 kPutChar = 0x0C;    ///< W: append character to core's log
inline constexpr u32 kCycle = 0x10;      ///< R: current cycle
inline constexpr u32 kMarker = 0x14;     ///< W: record (value, core, cycle)
inline constexpr u32 kNumCores = 0x18;   ///< R
inline constexpr u32 kCoresPerTile = 0x1C;  ///< R
inline constexpr u32 kNumTiles = 0x20;   ///< R
inline constexpr u32 kBarrierBase = 0x24;  ///< R: reserved SPM addr for barriers
// DMA frontend: per-core staging registers; a kDmaStart write validates the
// staged descriptor and hands it to one of the writer's group DMA engines
// (blocking the ctrl frontend while every engine queue of the group is
// full). kDmaStatus reads the group's outstanding-descriptor count.
//
// Wake-on-completion: a descriptor whose staged kDmaWake names a core wakes
// that core (through the cluster wake-up unit) the cycle it completes. The
// wake is suppressed while the target is running and has not "armed" it —
// a kDmaStatus read that returns nonzero arms the reader — so a core that
// never sleeps leaks no wake token into a later wfi (the runtime barrier
// depends on precise token accounting). The sleep/wake `_dma_wait` in the
// kernel runtime builds on this: read status, and if nonzero sleep with
// wfi until a completion wake, repeating until the count drains. Only the
// core a descriptor names as waker may wait this way.
inline constexpr u32 kDmaSrc = 0x28;     ///< RW: source byte address
inline constexpr u32 kDmaDst = 0x2C;     ///< RW: destination byte address
inline constexpr u32 kDmaLen = 0x30;     ///< RW: bytes per row (multiple of 4)
inline constexpr u32 kDmaStride = 0x34;  ///< RW: gmem-side row stride in bytes
inline constexpr u32 kDmaRows = 0x38;    ///< RW: row count (1 = 1D transfer)
inline constexpr u32 kDmaStart = 0x3C;   ///< W: launch the staged descriptor
inline constexpr u32 kDmaStatus = 0x40;  ///< R: outstanding descriptors (group)
inline constexpr u32 kDmaWake = 0x44;    ///< RW: waker core id (kDmaNoWaker = off)
// Descriptor-granular completion tracking: every started descriptor gets a
// sequential per-group ticket (1, 2, ...); kDmaTicket reads the ticket of
// the group's most recently started descriptor, kDmaRetired the group's
// in-order retired watermark (every ticket <= it has completed, engine
// count notwithstanding). To wait for a specific descriptor, software
// stages its ticket in kDmaWaitId and then reads kDmaRetired in a wfi
// loop: the read arms the completion wake iff watermark < staged ticket,
// mirroring kDmaStatus's precise token accounting. Tickets are u32 on the
// register interface; a run is assumed not to issue 2^32 descriptors.
inline constexpr u32 kDmaTicket = 0x48;   ///< R: last started ticket (group)
inline constexpr u32 kDmaWaitId = 0x4C;   ///< RW: ticket armed against
inline constexpr u32 kDmaRetired = 0x50;  ///< R: in-order retired watermark
}  // namespace ctrl

struct RunResult {
  u64 cycles = 0;
  bool eoc = false;           ///< a core wrote the EOC register
  bool deadlock = false;      ///< simulator detected lack of progress
  bool hit_max_cycles = false;
  u32 exit_code = 0;
  std::vector<u32> core_exit_codes;
  std::vector<u64> instret;
  sim::CounterSet counters;

  struct Marker {
    u32 id = 0;
    u16 core = 0;
    u64 cycle = 0;
  };
  std::vector<Marker> markers;
  std::string console;        ///< interleaved putchar output
  std::vector<std::string> core_errors;  ///< non-empty for faulted cores

  u64 total_instret() const;
  double ipc() const;  ///< cluster-wide instructions per cycle
  /// Cycle of the n-th occurrence of marker `id` (nullopt if absent).
  std::optional<u64> marker_cycle(u32 id, std::size_t occurrence = 0) const;
  /// All cycles at which marker `id` fired, in order.
  std::vector<u64> marker_cycles(u32 id) const;
  bool ok() const { return eoc && !deadlock && exit_code == 0; }
};

class Cluster final : public DmaSpmPort {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return cfg_; }
  const AddrMap& addr_map() const { return map_; }

  /// Load a program image: code/data into global memory or SPM by address,
  /// reset all cores to the entry point, clear caches and statistics.
  void load_program(const isa::Program& program);

  /// Run until EOC / all cores halted / deadlock / `max_cycles`.
  RunResult run(u64 max_cycles);

  /// Single-step one cycle (exposed for tests and interactive tools).
  void step();
  sim::Cycle now() const { return cycle_; }

  // ---- host backdoor access ------------------------------------------------
  u32 read_word(u32 addr) const;
  void write_word(u32 addr, u32 value);
  /// Write `words` to consecutive words from `addr`, as write_word would
  /// one by one, but as one copy into the SPM array or into the global
  /// memory pages. The range must lie in one region (the SPM or global
  /// memory); one that leaves it throws before anything is written.
  void write_words(u32 addr, std::span<const u32> words);
  std::vector<u32> read_words(u32 addr, std::size_t count) const;

  // ---- component access (tests, calibration) --------------------------------
  SnitchCore& core(u32 global_id) { return cores_[global_id]; }
  const SnitchCore& core(u32 global_id) const { return cores_[global_id]; }
  TileICache& icache(u32 tile) { return icaches_[tile]; }
  GlobalMemory& gmem() { return *gmem_; }
  Interconnect& interconnect() { return *noc_; }
  DmaSubsystem& dma() { return *dma_; }

  /// Pre-warm all instruction caches with every code segment (the paper
  /// measures compute phases with a hot I$).
  void warm_icaches();

  /// The telemetry facade, or nullptr when telemetry is off. Enabled by
  /// ClusterConfig::telemetry or, when that is disabled, by an active
  /// obs global request (the suite CLI's --timeline/--trace path).
  obs::Telemetry* telemetry() { return telemetry_.get(); }
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  /// The host-side step profiler, or nullptr when
  /// ClusterConfig::profiling is disabled.
  prof::StepProfiler* profiler() { return prof_.get(); }
  const prof::StepProfiler* profiler() const { return prof_.get(); }

  /// Snapshot every component's cumulative counters (the same assembly
  /// RunResult::counters gets at finish; also the windowed sampler's
  /// source).
  void collect_counters(sim::CounterSet& counters) const;

  // ---- core-facing interface (SnitchCore calls these) -------------------------
  /// Route a core's memory request; may refuse it (port busy). An SPM
  /// request writes the issuing slot's transaction record once, here. A
  /// misaligned half-word, word, AMO or LR/SC access, or an unmapped one,
  /// faults the core.
  IssueResult issue_mem(const MemRequest& request);
  /// Begin an instruction-cache refill for tile `tile` covering `pc`.
  void request_icache_refill(u32 tile, u32 pc);

  // Occupancy transitions, so the cluster keeps an O(1) awake-core count
  // and an active-core set instead of scanning every cycle. "Awake" means
  // runnable: kRunning, or kWfi holding a wake token (it resumes on its
  // next step).
  /// Core entered token-less wfi (left the runnable set).
  void note_core_asleep(u16 core);
  /// A wake token reached a token-less sleeping core (runnable again).
  void note_core_awake(u16 core);
  /// Core halted (ecall) or faulted; `was_awake` = runnable just before.
  void note_core_halted(u16 core, bool was_awake);

  /// Effective fast-forward setting (ClusterConfig::fast_forward, overridden
  /// by the MP3D_FAST_FORWARD environment variable at construction).
  bool fast_forward_enabled() const { return fast_forward_; }
  /// Cycles skipped by fast-forward jumps since load_program, streamed DMA
  /// cycles included (host-side diagnostic; deliberately NOT a simulation
  /// counter, which must stay bit-identical whether or not fast-forward is
  /// enabled).
  u64 fast_forwarded_cycles() const { return ff_skipped_cycles_; }

  /// Rewind the loaded program to its initial state: reset every core to
  /// the entry point, flush caches, drop queued traffic and zero the
  /// statistics (memory contents persist — reloading inputs is the kernel
  /// init hook's job, exactly as for load_program).
  void reset_run_state();

  // ---- sim::drive hooks (see sim/driver.hpp) ---------------------------------
  // Cluster::run hands the cluster itself to sim::drive; sys::System runs
  // sim::drive on each running job's cluster, on a host thread of its own.

  /// A core wrote the EOC register (the run's natural end).
  bool eoc_signaled() const { return eoc_; }
  bool all_cores_halted() const { return halted_cores_ == cfg_.num_cores(); }
  bool done() const { return eoc_ || all_cores_halted(); }
  /// Monotone progress witness of the deadlock watchdog: memory, DMA and
  /// ctrl events plus retired instructions (a core retrying a busy port
  /// retires nothing, so it cannot hide a hang).
  u64 activity() const { return activity_; }
  /// Fast-forward is enabled and every core is token-less asleep (none
  /// halted-out): a jump may be attempted. Only the memory system can then
  /// do work, and the cores phase has nothing to step.
  bool may_skip() const {
    return fast_forward_ && awake_cores_ == 0 && halted_cores_ < cfg_.num_cores();
  }
  /// The wake oracle: a lower bound (capped at `bound`) on the first cycle
  /// at which something beyond DMA streaming happens — a scalar gmem
  /// request queued or completing, an icache refill, a DMA retire, a NoC
  /// flit, bank or ctrl work — or kNever when everything is drained. A
  /// result <= now() + 1 means the next cycle is pinned. Bulk DMA
  /// streaming alone never pins it: skip_to steps through it. Pure:
  /// charging a jump is skip_to()'s job.
  sim::Cycle next_wake(sim::Cycle bound) const;
  /// The next qos window, telemetry sample or profiler stride boundary
  /// (kNever when all are off): a jump must land on it exactly.
  sim::Cycle horizon() const;
  /// Jump the clock to exactly one cycle before `target` (pre: may_skip()
  /// and `target` > now() + 1 no later than next_wake() and horizon()),
  /// with every observable as if each skipped cycle had ticked. While DMA
  /// bytes remain to be granted or the channel arbiter has per-cycle state
  /// to settle, the jump steps the gmem channel and the DMA engines cycle
  /// by cycle with their own step code (these streamed cycles count in
  /// fast_forwarded_cycles()); the quiet rest of the span is charged in
  /// one go. Returns the last skipped cycle that advanced activity(), or 0
  /// if none did, so the run loop's watchdog sees the ticked run's
  /// last-progress cycle.
  sim::Cycle skip_to(sim::Cycle target);
  /// Assemble the RunResult, close trace spans, sample the final partial
  /// telemetry window and deposit the run with the obs collector. Called
  /// exactly once per run, at the cycle the run ends.
  RunResult finish(bool eoc, bool deadlock, bool hit_max);
  /// Human-readable per-core stall summary for deadlock reports.
  std::string deadlock_diagnostic() const;

  // ---- DmaSpmPort (dedicated wide SPM port of the DMA engines) --------------
  u32 dma_read_spm(u32 addr) override;
  void dma_write_spm(u32 addr, u32 value) override;
  void dma_wake_core(u32 core) override;

 private:
  void serve_banks();
  void serve_ctrl();
  void ctrl_access(const MemRequest& request);
  /// Fault the core that issued `request` with "<what> 0x<address>"; the
  /// request counts as accepted, and no response will arrive.
  IssueResult fault_access(const MemRequest& request, const std::string& what);
  u32 core_group(u16 core) const;
  /// Validate and launch the staged descriptor; false = core was faulted.
  bool dma_start(const MemRequest& request);
  // Functional word access to the SPM array (host backdoor + DMA port); a
  // write drops the reservations on its word.
  u32 spm_read_word(u32 addr) const;
  void spm_write_word(u32 addr, u32 value);
  void deliver_response_to_core(const MemResponse& response);
  /// Deliver the response of SPM transaction `handle` to its core.
  void deliver_spm_response(u32 handle);
  void deliver_remote_request(u32 dst_tile, u32 handle);
  /// Return a parked core to the stepped set (a halted one only stops
  /// being charged). No-op for a core that is not parked.
  void unpark(u32 core);
  void activate_core(u32 core) { active_[core / 64] |= u64{1} << (core % 64); }
  void activate_bank(u32 global_bank);
  void init_telemetry();
  void sample_window();

  ClusterConfig cfg_;
  AddrMap map_;
  u32 bank_tile_shift_;  ///< log2(banks_per_tile): global bank -> tile
  sim::Cycle cycle_ = 0;
  u32 entry_ = 0;  ///< entry point of the loaded program (reset_run_state)

  // Cores and icaches live in contiguous arrays (no per-element heap
  // indirection): built once in the constructor with reserved capacity and
  // never resized, so element addresses stay stable for the attach()
  // pointers handed out in load_program.
  std::vector<SnitchCore> cores_;
  /// SPM contents, address-ordered: word i holds address spm_base + 4 i.
  /// The banks execute requests on it; the host backdoor and the DMA port
  /// index it directly. The words are calloc'd, so the OS maps each page
  /// on first touch and the host footprint follows the SPM a run touches,
  /// not the configured capacity.
  std::unique_ptr<u32[], decltype(&std::free)> spm_words_{nullptr, &std::free};
  std::span<u32> spm_;
  /// LR/SC reservations on the SPM's words, by word index. The banks
  /// execute against them; every functional write (host backdoor, DMA
  /// port) drops those on the words it writes.
  Reservations spm_reservations_;
  std::vector<SpmBank> banks_;
  /// SPM transaction records, one per core LSU slot, indexed by the slot's
  /// handle `core << lsu_shift_ | tag`. issue_mem writes a record with the
  /// decoded route; the bank queues and the NoC carry only its handle, and
  /// the response is rebuilt from the handle and the record's `rdata`.
  std::vector<BankRequest> txns_;
  u32 lsu_shift_;  ///< log2 of the records per core (LSU depth rounded up)
  std::vector<TileICache> icaches_;
  std::unique_ptr<Interconnect> noc_;
  std::unique_ptr<GlobalMemory> gmem_;
  std::unique_ptr<DmaSubsystem> dma_;
  std::unique_ptr<qos::AdaptiveShareController> qos_;
  /// Issue cycles of in-flight scalar gmem requests (FIFO service order
  /// matches response order), feeding the QoS controller's per-request
  /// latency observations. Maintained only while qos_ exists.
  std::deque<sim::Cycle> gmem_issue_cycles_;
  std::unique_ptr<DecodedImage> image_;

  /// Per-core DMA staging registers (the ctrl frontend's programming model).
  struct DmaStage {
    u32 src = 0;
    u32 dst = 0;
    u32 len = 0;
    u32 stride = 0;
    u32 rows = 1;
    u32 wake = kDmaNoWaker;  ///< waker core id; kDmaNoWaker = no wake
  };
  std::vector<DmaStage> dma_stage_;
  /// Completion-wake arming: set when the core's last kDmaStatus read was
  /// nonzero (it is about to wfi), or its last kDmaRetired read was below
  /// its staged kDmaWaitId ticket; cleared when a wake is delivered.
  std::vector<u8> dma_wake_armed_;
  /// Per-core staged kDmaWaitId ticket (descriptor-granular waits).
  std::vector<u32> dma_wait_target_;
  u64 dma_wakes_ = 0;             ///< completion wakes delivered
  u64 dma_wakes_suppressed_ = 0;  ///< completions whose waker was busy/unarmed
  u64 dma_status_reads_ = 0;      ///< kDmaStatus reads (poll-traffic witness)
  u64 dma_retired_reads_ = 0;     ///< kDmaRetired reads

  // Bank scheduling: only banks with queued work are visited.
  std::vector<u32> active_banks_;
  std::vector<u8> bank_active_flag_;

  // Control peripheral state.
  std::deque<MemRequest> ctrl_queue_;
  // Blocked-DMA-start bookkeeping (populated only while a start is held).
  std::vector<u8> ctrl_blocked_;  ///< per-core "held behind a blocked DMA start"
  std::vector<MemRequest> ctrl_held_;  ///< reused hold buffer
  bool eoc_ = false;
  u32 eoc_code_ = 0;
  std::vector<RunResult::Marker> markers_;
  std::string console_;

  // Pending icache refills: token -> (tile, line address).
  std::vector<std::pair<u32, u32>> refill_slots_;
  std::vector<u32> refill_free_;

  // Reused buffers for gmem completions.
  std::vector<MemResponse> gmem_responses_;
  std::vector<u32> gmem_refills_;

  // Telemetry (null / kNever when disabled: the per-cycle cost is one
  // always-false comparison in step()).
  std::unique_ptr<obs::Telemetry> telemetry_;
  obs::Trace* trace_ = nullptr;  ///< telemetry_->trace(), cached for hot paths
  sim::Cycle next_sample_at_ = sim::kNever;
  u32 marker_track_ = 0;
  u32 ev_marker_ = 0;

  // Host-side self-profiling (null / kNever when disabled, same contract
  // as telemetry: one always-false comparison per step).
  std::unique_ptr<prof::StepProfiler> prof_;
  sim::Cycle next_prof_at_ = sim::kNever;

  // Progress witness for deadlock detection (sim::drive's watchdog).
  u64 activity_ = 0;

  // ---- occupancy + idle-cycle fast-forward ---------------------------------
  // O(1) occupancy counts, updated by the cores' transition hooks
  // (note_core_asleep/awake/halted) instead of scanning every core. A
  // parked core counts as awake.
  u32 awake_cores_ = 0;
  u32 halted_cores_ = 0;
  // Phase 5 steps the cores whose bit is set here, walking the words in
  // ascending id (request FIFO ordering into banks/noc/ctrl/gmem depends on
  // core step order). A bit is cleared when its core sleeps, halts or
  // parks, and set again when it wakes or un-parks; no list to sort.
  std::vector<u64> active_;
  // Parked cores: a step stalled on a memory response (SnitchCore::wait())
  // and the core left the active set. Until something can change that
  // stall — a response to it (deliver), a refill landing on its tile (it
  // may evict the core's line), its halt, or reset_run_state — every
  // cycle would repeat it, so phase 5 charges the parked count per wait
  // reason instead of stepping them; collect_counters adds the charge to
  // the reason's stall counter and to icache.hits (each repeated step
  // would have hit).
  std::array<u32, kNumWaits> parked_{};
  std::array<u64, kNumWaits> parked_cycles_{};
  // Cluster-level wfi charge: each ticked cycle adds the count of
  // token-less sleeping cores, and a fast-forward jump adds span x idle —
  // bit-identical to every core bumping its own counter per slept cycle.
  // (Core-local wfi_cycles_ still accrues when cores are stepped directly,
  // outside the cluster's active-set loop.)
  u64 wfi_idle_cycles_ = 0;
  u64 ff_skipped_cycles_ = 0;  ///< host diagnostic, not a sim counter
  bool fast_forward_ = true;   ///< cfg_.fast_forward after env override
};

}  // namespace mp3d::arch
