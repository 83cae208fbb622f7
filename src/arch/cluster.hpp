// SPDX-License-Identifier: Apache-2.0
// The MemPool cluster: cores, SPM banks, instruction caches, hierarchical
// interconnect, control peripherals, per-group DMA engines and
// bandwidth-limited global memory, advanced together in a fixed per-cycle
// order:
//
//   head:    global memory -> DMA engines -> qos -> control peripherals
//   group g: icache refills and gmem responses -> request network -> banks
//            -> response network -> cores
//   tail:    replay the cores' gmem, refill and ctrl requests -> telemetry
//
// The DMA engines run directly after global memory so bulk transfers claim
// whatever byte budget the cycle's scalar traffic left over. The control
// peripherals serve requests queued in earlier cycles, and nothing the
// networks or banks do reads or writes what they touch, so they run ahead
// of the request network.
//
// One section per group: it delivers the flits bound for the group's
// tiles, serves the group's banks and steps its cores, and touches no
// state another group's section touches. A flit goes to one group (its
// network is the XOR of the two tiles' groups), carries its access by
// value and never arrives in the cycle it is pushed; a bank, an ingress
// port, an icache and a core each belong to one group; a core's requests
// of the cluster-wide queues wait for the tail. So the sections may run
// side by side on host threads, and the results are the same for every
// thread count.
//
// Side by side, a section reads only lines its own thread owns, plus the
// fork line, the flits other groups pushed to it, what the head handed it
// and the done lines. The head hands each group the gmem responses to its
// cores and the refills that landed on its tiles in an inbox the section
// drains first (a gmem and a ctrl response to one core in one cycle retire
// different LSU slots, so their order changes no state); the tail only
// reads group state; the fields the calling thread writes every cycle sit
// on lines of their own; and a section issues the loads of the lines
// other threads wrote since its last cycle before it uses any of them.
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
#include "prof/profile.hpp"
#include "sim/counters.hpp"
#include "sim/fork_join.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Telemetry;
class Trace;
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
  bool fault = false;         ///< a core faulted, which ended the run
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

  /// Run until EOC / all cores halted / a core fault / deadlock /
  /// `max_cycles`.
  RunResult run(u64 max_cycles);

  /// Single-step one cycle (exposed for tests and interactive tools). The
  /// group sections run on up to min(num_groups, host_thread_budget())
  /// host threads (sim/fork_join.hpp), the calling thread being one; they
  /// run one after another on the calling thread while fewer cores are
  /// awake than one group holds, with a trace attached (so the trace's
  /// event order is the phase order), and from the
  /// cycle after the run's first lr.w or sc.w to the SPM on (the SPM's one
  /// reservation table is the only state banks of different groups share;
  /// in that mode the groups' banks serve in group order, which differs
  /// from serving every bank before any response only when banks of two
  /// groups serve LR/SC ops in the same cycle). Every step ends with each
  /// group's state merged back, so host calls between steps see one
  /// cluster.
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
  /// request is decoded once, here, into the BankRequest that travels with
  /// its slot's handle. A misaligned half-word, word, AMO or LR/SC access,
  /// or an unmapped one, faults the core.
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
  bool all_cores_halted() const { return halted_cores() == cfg_.num_cores(); }
  /// EOC, every core halted, or a core faulted (the run ends on the cycle
  /// it did).
  bool done() const { return eoc_ || fault_ || all_cores_halted(); }
  /// Monotone progress witness of the deadlock watchdog: memory, DMA and
  /// ctrl events plus retired instructions (a core retrying a busy port
  /// retires nothing, so it cannot hide a hang).
  u64 activity() const;
  /// Fast-forward is enabled and every core is token-less asleep (none
  /// halted-out): a jump may be attempted. Only the memory system can then
  /// do work, and the cores phase has nothing to step.
  bool may_skip() const {
    return fast_forward_ && awake_cores() == 0 && halted_cores() < cfg_.num_cores();
  }
  /// The wake oracle: a lower bound (capped at `bound`) on the first cycle
  /// at which something beyond DMA streaming happens — a scalar gmem
  /// request queued or completing, an icache refill, a DMA retire, a NoC
  /// flit, bank or ctrl work — or kNever when everything is drained. A
  /// result <= now() + 1 means the next cycle is pinned. Bulk DMA
  /// streaming alone never pins it: skip_to advances through it. Pure:
  /// charging a jump is skip_to()'s job.
  sim::Cycle next_wake(sim::Cycle bound) const;
  /// The next qos window, telemetry sample or profiler stride boundary
  /// (kNever when all are off): a jump must land on it exactly.
  sim::Cycle horizon() const;
  /// Jump the clock to exactly one cycle before `target` (pre: may_skip()
  /// and `target` > now() + 1 no later than next_wake() and horizon()),
  /// with every observable as if each skipped cycle had ticked. The gmem
  /// channel and the DMA engines advance through the span by runs of
  /// cycles that repeat one grant pattern (DmaSubsystem::stream: one call
  /// per run, which ends where an engine activates a descriptor or is
  /// granted a descriptor's last byte); a span with no backlog is one
  /// run. Returns the last skipped cycle that advanced activity(), or 0
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
  void dma_read_spm(u32 addr, std::span<u32> words) override;
  void dma_write_spm(u32 addr, std::span<const u32> words) override;
  void dma_wake_core(u32 core) override;

 private:
  struct Group;

  /// The fork-join job of a side-by-side step: section g, timed on a
  /// sampled cycle. A member, so the job the pool runs stays the same from
  /// step to step.
  struct SectionJob {
    Cluster* cluster;
    void operator()(u32 g) const;
  };

  /// Group g's section of step(): its inbox, then phases 2-5 for its
  /// tiles, marked on `timer` (a prof::StepTimer or a prof::SectionTimer).
  template <typename Timer>
  void run_section(Group& group, Timer& timer);
  void serve_banks(Group& group);
  void step_cores(Group& group);
  /// The tail's replay of the group's queued gmem, refill and ctrl
  /// requests, in issue order (the group's next section empties them).
  void replay_requests(const Group& group);
  void serve_ctrl();
  void ctrl_access(const MemRequest& request);
  /// Fault the core that issued `request` with "<what> 0x<address>"; the
  /// request counts as accepted, and no response will arrive.
  IssueResult fault_access(const MemRequest& request, const std::string& what);
  u32 core_group(u16 core) const { return core_group_[core]; }
  Group& group_of(u32 core) { return groups_[core_group_[core]]; }
  u32 awake_cores() const;
  u32 halted_cores() const;
  /// Validate and launch the staged descriptor; false = core was faulted.
  bool dma_start(const MemRequest& request);
  // Functional access to the SPM array (host backdoor + DMA port); a
  // write drops the reservations on the words it writes.
  u32 spm_read_word(u32 addr) const;
  void spm_write_words(u32 addr, std::span<const u32> words);
  void deliver_response_to_core(const MemResponse& response);
  /// Deliver `rdata`, the response to LSU slot `handle`, to its core.
  void deliver_spm_response(u32 handle, u32 rdata);
  void deliver_remote_request(Group& group, u32 dst_tile, u32 handle, const BankRequest& access);
  /// Return a parked core to the stepped set (a halted one only stops
  /// being charged). No-op for a core that is not parked.
  void unpark(u32 core);
  void activate_core(u32 core);
  void activate_bank(Group& group, u32 global_bank);
  void init_telemetry();
  void sample_window();

  ClusterConfig cfg_;
  AddrMap map_;
  u32 bank_tile_shift_;  ///< log2(banks_per_tile): global bank -> tile
  /// The clock, written by the calling thread every cycle and read by
  /// every section: on a line of its own, so writing it leaves the
  /// read-mostly lines around it in the sections' caches.
  alignas(64) sim::Cycle cycle_ = 0;
  bool prof_sampled_ = false;  ///< this step is a sampled profiler cycle
  alignas(64) u32 entry_ = 0;  ///< entry point of the loaded program (reset_run_state)

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
  /// An SPM access travels with its LSU slot's handle `core << lsu_shift_ |
  /// tag`, from which the response is rebuilt.
  u32 lsu_shift_;  ///< log2 of the handles per core (LSU depth rounded up)
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

  // Bank scheduling: only banks with queued work are visited (each
  // group's list is in its Group).
  sim::LineVector<u8> bank_active_flag_;

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

  // Progress witness for deadlock detection (sim::drive's watchdog): the
  // calling thread's events, on a line of its own (it is bumped every
  // cycle). activity() adds the groups' running counts.
  alignas(64) u64 activity_ = 0;

  /// A core's request of a cluster-wide queue, made in its group's section
  /// and replayed by the tail.
  struct QueuedRequest {
    enum class Kind : u8 { kGmem, kCtrl, kRefill } kind;
    u32 tile = 0;        ///< kRefill: the tile whose icache missed
    MemRequest request;  ///< kRefill: `addr` is the fetch pc
  };

  // ---- occupancy, per group ------------------------------------------------
  // O(1) occupancy counts, updated by the cores' transition hooks
  // (note_core_asleep/awake/halted) instead of scanning every core. A
  // parked core counts as awake.
  //
  // Phase 5 steps the cores whose bit is set in their group's `active`,
  // walking the words in ascending id (request FIFO ordering into banks,
  // noc, ctrl and gmem depends on core step order). A bit is cleared when
  // its core sleeps, halts or parks, and set again when it wakes or
  // un-parks; no list to sort.
  //
  // Parked cores: a step stalled on a memory response (SnitchCore::wait())
  // and the core left the active set. Until something can change that
  // stall — a response to it (deliver), a refill landing on its tile (it
  // may evict the core's line), its halt, or reset_run_state — every
  // cycle would repeat it, so phase 5 charges the parked count per wait
  // reason instead of stepping them; collect_counters adds the charge to
  // the reason's stall counter and to icache.hits (each repeated step
  // would have hit).
  //
  // The wfi charge: each ticked cycle adds the count of token-less
  // sleeping cores, and a fast-forward jump adds span x idle — bit-identical
  // to every core bumping its own counter per slept cycle. (Core-local
  // wfi_cycles_ still accrues when cores are stepped directly, outside the
  // cluster's active-set loop.)
  //
  // During a step only the group's section writes its Group. The head
  // writes one only for a ctrl response, a wake or a fault, and the tail
  // only reads them (on a sampled profiler cycle it also takes and zeroes
  // the section's phase times).
  struct alignas(64) Group {
    u32 index = 0;
    u32 first_core = 0;
    u32 awake = 0;
    u32 halted = 0;
    bool lr_sc = false;  ///< a core issued an lr.w or sc.w to the SPM this run
    bool fault = false;  ///< a core of the group faulted this run
    u64 activity = 0;    ///< progress this run
    u64 wfi_idle_cycles = 0;
    std::array<u32, kNumWaits> parked{};
    std::array<u64, kNumWaits> parked_cycles{};
    /// Section phase times of a sampled cycle that ran side by side.
    std::array<u64, prof::kNumPhases> phase_ns{};
    sim::LineVector<u64> active;        ///< bit (core - first_core)
    sim::LineVector<u32> active_banks;  ///< banks with queued work, in activation order
    sim::LineVector<QueuedRequest> queued;  ///< this step's, in issue order
  };
  alignas(64) std::vector<Group> groups_;
  /// What the head hands a group's section, which delivers it first: the
  /// gmem responses to the group's cores and the icache refills that
  /// landed on its tiles. The section empties it.
  struct alignas(64) Inbox {
    sim::LineVector<MemResponse> responses;
    sim::LineVector<std::pair<u32, u32>> refills;  ///< (tile, line address)
  };
  std::vector<Inbox> inboxes_;  ///< one per group
  std::vector<u8> core_group_;  ///< group of each core
  u32 group_shift_;             ///< log2(tiles_per_group): tile -> group
  u32 cores_per_group_;
  /// Set once the run issues an lr.w or sc.w to the SPM: from the next
  /// cycle on the sections run one after another on the calling thread.
  bool sections_in_order_ = false;
  /// Set once a core faults (merged from the groups after the join, as
  /// their lr_sc is): done() then ends the run.
  bool fault_ = false;
  u64 ff_skipped_cycles_ = 0;  ///< host diagnostic, not a sim counter
  bool fast_forward_ = true;   ///< cfg_.fast_forward after env override
  /// The group sections' helper threads, started by the first step that
  /// runs sections side by side.
  std::unique_ptr<sim::ForkJoin> pool_;
  SectionJob section_job_{this};
};

}  // namespace mp3d::arch
