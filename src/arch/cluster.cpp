// SPDX-License-Identifier: Apache-2.0
#include "arch/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>
#include <numeric>
#include <sstream>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/collector.hpp"
#include "obs/telemetry.hpp"
#include "prof/profile.hpp"
#include "qos/adaptive_share.hpp"
#include "sim/driver.hpp"

namespace mp3d::arch {

u64 RunResult::total_instret() const {
  u64 total = 0;
  for (const u64 n : instret) {
    total += n;
  }
  return total;
}

double RunResult::ipc() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(total_instret()) / static_cast<double>(cycles);
}

std::optional<u64> RunResult::marker_cycle(u32 id, std::size_t occurrence) const {
  std::size_t seen = 0;
  for (const Marker& m : markers) {
    if (m.id == id) {
      if (seen == occurrence) {
        return m.cycle;
      }
      ++seen;
    }
  }
  return std::nullopt;
}

std::vector<u64> RunResult::marker_cycles(u32 id) const {
  std::vector<u64> out;
  for (const Marker& m : markers) {
    if (m.id == id) {
      out.push_back(m.cycle);
    }
  }
  return out;
}

namespace {

/// Validation runs before any member is derived from the config: AddrMap
/// and the bank array divide by its counts.
ClusterConfig validated(ClusterConfig cfg) {
  cfg.validate();
  return cfg;
}

/// True when `addr` is not a multiple of the size `op` accesses: 2 bytes
/// for lh/lhu/sh, 4 for word loads and stores, AMOs and lr/sc (byte
/// accesses are never misaligned).
bool misaligned(isa::Op op, u32 addr) {
  switch (op) {
    case isa::Op::kLb:
    case isa::Op::kLbu:
    case isa::Op::kSb:
      return false;
    case isa::Op::kLh:
    case isa::Op::kLhu:
    case isa::Op::kSh:
      return (addr & 1U) != 0;
    default:
      return (addr & 3U) != 0;
  }
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(validated(std::move(cfg))),
      map_(cfg_),
      bank_tile_shift_(log2_exact(cfg_.banks_per_tile)),
      lsu_shift_(static_cast<u32>(std::bit_width(cfg_.lsu_max_outstanding - 1))),
      group_shift_(log2_exact(cfg_.tiles_per_group)),
      cores_per_group_(cfg_.tiles_per_group * cfg_.cores_per_tile) {
  noc_ = std::make_unique<Interconnect>(cfg_);
  gmem_ = std::make_unique<GlobalMemory>(cfg_.gmem_base, cfg_.gmem_size,
                                         cfg_.gmem_bytes_per_cycle, cfg_.gmem_latency,
                                         cfg_.gmem_arbiter);
  dma_ = std::make_unique<DmaSubsystem>(cfg_);
  if (cfg_.qos.enabled) {
    qos_ = std::make_unique<qos::AdaptiveShareController>(cfg_.qos, *gmem_);
  }
  dma_stage_.resize(cfg_.num_cores());
  dma_wake_armed_.assign(cfg_.num_cores(), 0);
  dma_wait_target_.assign(cfg_.num_cores(), 0);
  const u32 tiles = cfg_.num_tiles();
  const std::size_t words = cfg_.spm_capacity / 4;
  spm_words_.reset(static_cast<u32*>(std::calloc(words, sizeof(u32))));
  if (spm_words_ == nullptr) {
    throw std::bad_alloc();
  }
  spm_ = std::span<u32>(spm_words_.get(), words);
  banks_.resize(cfg_.num_banks());
  bank_active_flag_.assign(cfg_.num_banks(), 0);
  icaches_.reserve(tiles);
  for (u32 t = 0; t < tiles; ++t) {
    icaches_.emplace_back(cfg_.icache_size, cfg_.icache_line, cfg_.perfect_icache);
  }
  cores_.reserve(cfg_.num_cores());
  for (u32 c = 0; c < cfg_.num_cores(); ++c) {
    cores_.emplace_back(cfg_, static_cast<u16>(c), c / cfg_.cores_per_tile);
  }
  groups_.resize(cfg_.num_groups);
  inboxes_.resize(cfg_.num_groups);
  for (u32 g = 0; g < cfg_.num_groups; ++g) {
    Group& group = groups_[g];
    group.index = g;
    group.first_core = g * cores_per_group_;
    group.halted = cores_per_group_;  // cores start halted until load_program
    group.active.assign((cores_per_group_ + 63) / 64, 0);
    // Capacity for a step's worth, so a section never allocates: at most
    // every bank active, one queued request per core.
    group.active_banks.reserve(cfg_.tiles_per_group * cfg_.banks_per_tile);
    group.queued.reserve(cores_per_group_);
    core_group_.insert(core_group_.end(), cores_per_group_, static_cast<u8>(g));
  }
  fast_forward_ = cfg_.fast_forward;
  if (const char* env = std::getenv("MP3D_FAST_FORWARD")) {
    fast_forward_ = !(env[0] == '0' && env[1] == '\0');
  }
  if (cfg_.profiling.enabled()) {
    prof_ = std::make_unique<prof::StepProfiler>(cfg_.profiling);
    next_prof_at_ = cfg_.profiling.stride;
  }
  init_telemetry();
}

void Cluster::init_telemetry() {
  // The suite CLI's --timeline/--trace flags reach scenario-constructed
  // clusters through the obs global request; an explicit per-cluster
  // config always wins.
  const TelemetryConfig tcfg = obs::effective_config(cfg_.telemetry);
  if (!tcfg.enabled()) {
    return;
  }
  telemetry_ = std::make_unique<obs::Telemetry>(tcfg);
  trace_ = telemetry_->trace();
  if (trace_ == nullptr) {
    return;
  }
  // Track layout: pid = group for cores and DMA engines, one pseudo
  // process for the gmem arbiter's two traffic classes, and one for
  // kernel phase markers.
  const u32 cores_per_group = cfg_.tiles_per_group * cfg_.cores_per_tile;
  for (u32 c = 0; c < cfg_.num_cores(); ++c) {
    const u32 group = c / cores_per_group;
    const u32 track = trace_->add_track("group" + std::to_string(group), group,
                                        "core" + std::to_string(c), c);
    cores_[c].set_trace(trace_, track);
  }
  std::vector<u32> engine_tracks;
  for (u32 g = 0; g < cfg_.num_groups; ++g) {
    for (u32 e = 0; e < cfg_.dma.engines_per_group; ++e) {
      engine_tracks.push_back(trace_->add_track(
          "group" + std::to_string(g), g,
          "dma" + std::to_string(g) + "." + std::to_string(e), 100000 + e));
    }
  }
  dma_->set_trace(trace_, std::move(engine_tracks));
  const u32 gmem_pid = cfg_.num_groups;
  const u32 bulk = trace_->add_track("gmem", gmem_pid, "bulk", 0);
  const u32 scalar = trace_->add_track("gmem", gmem_pid, "scalar", 1);
  gmem_->set_trace(trace_, bulk, scalar);
  if (qos_ != nullptr) {
    qos_->set_trace(trace_, trace_->add_track("gmem", gmem_pid, "qos", 2));
  }
  marker_track_ = trace_->add_track("kernel", gmem_pid + 1, "markers", 0);
  ev_marker_ = trace_->intern("marker");
  if (prof_ != nullptr && cfg_.profiling.trace_counters) {
    // Host-time counter tracks live in their own pseudo process so the
    // ns-valued series do not stretch the cycle-valued simulated rows.
    prof_->set_trace(trace_, trace_->add_track("host", gmem_pid + 2, "prof", 0));
  }
}

Cluster::~Cluster() = default;

void Cluster::load_program(const isa::Program& program) {
  image_ = std::make_unique<DecodedImage>(program);
  entry_ = program.entry();
  for (const isa::Segment& seg : program.segments()) {
    write_words(seg.base, seg.words);
  }
  reset_run_state();
}

void Cluster::reset_run_state() {
  MP3D_CHECK(image_ != nullptr, "load a program before resetting run state");
  // Stacks live in the tile-sequential region: each core gets an equal
  // slice of its tile's sequential bytes, stack growing down from the top.
  const u32 stack_bytes =
      static_cast<u32>(cfg_.seq_bytes_per_tile / cfg_.cores_per_tile);
  for (u32 c = 0; c < cfg_.num_cores(); ++c) {
    const u32 tile = c / cfg_.cores_per_tile;
    const u32 lane = c % cfg_.cores_per_tile;
    const u32 sp = map_.seq_base(tile) + (lane + 1) * stack_bytes;
    cores_[c].attach(this, &icaches_[tile], image_.get());
    cores_[c].reset(entry_, sp);
  }
  // reset() does not route through the transition hooks; rebuild the
  // occupancy counts and the (fully populated) active sets, with nothing
  // parked.
  for (Group& group : groups_) {
    group.awake = cores_per_group_;
    group.halted = 0;
    group.lr_sc = false;
    group.fault = false;
    group.activity = 0;
    group.wfi_idle_cycles = 0;
    group.parked.fill(0);
    group.parked_cycles.fill(0);
    std::fill(group.active.begin(), group.active.end(), 0);
    group.active_banks.clear();
    group.queued.clear();
  }
  for (Inbox& inbox : inboxes_) {
    inbox.responses.clear();
    inbox.refills.clear();
  }
  for (u32 c = 0; c < cfg_.num_cores(); ++c) {
    activate_core(c);
  }
  sections_in_order_ = false;
  ff_skipped_cycles_ = 0;
  for (TileICache& icache : icaches_) {
    icache.flush();
    icache.reset_stats();
  }
  // Drop traffic and statistics left over from a previous run so
  // back-to-back runs on one cluster start from an identical state (memory
  // *contents* persist; reloading inputs is the kernel init hook's job).
  gmem_->reset_run_state();
  if (qos_ != nullptr) {
    qos_->reset();  // after gmem: restores the initial live share
  }
  gmem_issue_cycles_.clear();
  noc_->reset_run_state();
  for (SpmBank& bank : banks_) {
    bank.reset_run_state();
  }
  spm_reservations_.clear();
  std::fill(bank_active_flag_.begin(), bank_active_flag_.end(), 0);
  refill_slots_.clear();
  refill_free_.clear();
  cycle_ = 0;
  eoc_ = false;
  fault_ = false;
  eoc_code_ = 0;
  markers_.clear();
  console_.clear();
  ctrl_queue_.clear();
  dma_->reset();
  std::fill(dma_stage_.begin(), dma_stage_.end(), DmaStage{});
  std::fill(dma_wake_armed_.begin(), dma_wake_armed_.end(), 0);
  std::fill(dma_wait_target_.begin(), dma_wait_target_.end(), 0);
  dma_wakes_ = 0;
  dma_wakes_suppressed_ = 0;
  dma_status_reads_ = 0;
  dma_retired_reads_ = 0;
  activity_ = 0;
  if (telemetry_ != nullptr) {
    telemetry_->reset();
    next_sample_at_ = telemetry_->timeline() != nullptr
                          ? telemetry_->timeline()->window_cycles()
                          : sim::kNever;
  }
  if (prof_ != nullptr) {
    prof_->reset();
    next_prof_at_ = cfg_.profiling.stride;
  }
}

void Cluster::warm_icaches() {
  // Mark every line of every loaded code segment present in all tiles.
  // Walks the image's actual segment extents — not a fixed address range —
  // so code placed anywhere in the gmem window warms correctly.
  // (Direct-mapped aliasing means large programs may still miss; the
  // paper's kernels fit the 2 KiB cache.)
  MP3D_CHECK(image_ != nullptr, "load a program before warming icaches");
  const auto spans = image_->segment_spans();
  for (u32 t = 0; t < cfg_.num_tiles(); ++t) {
    TileICache& icache = icaches_[t];
    for (const auto& [base, end] : spans) {
      if (base >= end || map_.classify(base) != Region::kGmem) {
        continue;  // cores fetch only from gmem; skip SPM data segments
      }
      const u32 last_line = icache.line_addr(end - 1);
      for (u32 line = icache.line_addr(base);; line += icache.line_bytes()) {
        icache.warm(line);
        if (line == last_line) {
          break;
        }
      }
    }
  }
}

u32 Cluster::spm_read_word(u32 addr) const {
  MP3D_ASSERT(map_.is_spm(addr));
  return spm_[(addr - cfg_.spm_base) >> 2];
}

void Cluster::spm_write_words(u32 addr, std::span<const u32> words) {
  MP3D_ASSERT(map_.is_spm(addr) && u64{addr} + words.size() * 4 <=
                                       u64{cfg_.spm_base} + cfg_.spm_capacity);
  const u32 first = (addr - cfg_.spm_base) >> 2;
  spm_reservations_.drop_words(first, words.size());
  std::copy(words.begin(), words.end(), spm_.begin() + first);
}

u32 Cluster::read_word(u32 addr) const {
  switch (map_.classify(addr)) {
    case Region::kSpmSeq:
    case Region::kSpmInterleaved:
      return spm_read_word(addr);
    case Region::kGmem:
      return gmem_->read_word(addr);
    default:
      MP3D_CHECK(false, "host read from unmapped address 0x" << std::hex << addr);
      return 0;
  }
}

void Cluster::write_word(u32 addr, u32 value) {
  switch (map_.classify(addr)) {
    case Region::kSpmSeq:
    case Region::kSpmInterleaved:
      spm_write_words(addr, std::span<const u32>(&value, 1));
      return;
    case Region::kGmem:
      gmem_->write_word(addr, value);
      return;
    default:
      MP3D_CHECK(false, "host write to unmapped address 0x" << std::hex << addr);
  }
}

bool Cluster::host_range_in_spm(u32 addr, std::size_t words, const char* access) const {
  // The SPM's two regions are one address-ordered array, so a range may
  // cross from the sequential into the interleaved region.
  const Region region = map_.classify(addr);
  const bool spm = region == Region::kSpmSeq || region == Region::kSpmInterleaved;
  MP3D_CHECK(spm || region == Region::kGmem,
             "host " << access << " unmapped address 0x" << std::hex << addr);
  const u64 region_end = spm ? u64{cfg_.spm_base} + cfg_.spm_capacity
                             : u64{map_.gmem_base()} + map_.gmem_size();
  MP3D_CHECK(u64{addr & ~3U} + words * 4 <= region_end,
             "host " << access << " unmapped address 0x" << std::hex << region_end);
  return spm;
}

void Cluster::write_words(u32 addr, std::span<const u32> words) {
  if (words.empty()) {
    return;
  }
  if (host_range_in_spm(addr, words.size(), "write to")) {
    spm_write_words(addr & ~3U, words);
  } else {
    gmem_->write_words(addr, words);
  }
}

void Cluster::read_words(u32 addr, std::span<u32> words) const {
  if (words.empty()) {
    return;
  }
  if (host_range_in_spm(addr, words.size(), "read from")) {
    std::copy_n(spm_.begin() + (((addr & ~3U) - cfg_.spm_base) >> 2), words.size(),
                words.begin());
  } else {
    gmem_->read_words(addr, words);
  }
}

std::vector<u32> Cluster::read_words(u32 addr, std::size_t count) const {
  std::vector<u32> out(count);
  read_words(addr, std::span<u32>(out));
  return out;
}

void Cluster::clear_memory() {
  constexpr std::size_t kPageWords = 1024;  // 4 KiB
  for (std::size_t first = 0; first < spm_.size(); first += kPageWords) {
    const std::span<u32> page = spm_.subspan(first, std::min(kPageWords, spm_.size() - first));
    if (std::any_of(page.begin(), page.end(), [](u32 word) { return word != 0; })) {
      std::fill(page.begin(), page.end(), 0U);
    }
  }
  spm_reservations_.clear();
  gmem_->clear();
}

void Cluster::activate_core(u32 core) {
  Group& group = group_of(core);
  const u32 bit = core - group.first_core;
  group.active[bit / 64] |= u64{1} << (bit % 64);
}

void Cluster::activate_bank(Group& group, u32 global_bank) {
  if (bank_active_flag_[global_bank] == 0) {
    bank_active_flag_[global_bank] = 1;
    group.active_banks.push_back(global_bank);
  }
}

u32 Cluster::awake_cores() const {
  u32 n = 0;
  for (const Group& group : groups_) {
    n += group.awake;
  }
  return n;
}

u64 Cluster::activity() const {
  u64 n = activity_;
  for (const Group& group : groups_) {
    n += group.activity;
  }
  return n;
}

u32 Cluster::halted_cores() const {
  u32 n = 0;
  for (const Group& group : groups_) {
    n += group.halted;
  }
  return n;
}

IssueResult Cluster::issue_mem(const MemRequest& request) {
  // One alignment rule for every region: a half-word, word, AMO or LR/SC
  // access off its natural alignment faults the core.
  if ((request.addr & 3U) != 0 && misaligned(request.op, request.addr)) {
    return fault_access(request, std::string("misaligned ") + isa::op_name(request.op) +
                                     " at address");
  }
  const u32 src_tile = cores_[request.core].tile_id();
  Group& group = groups_[src_tile >> group_shift_];
  switch (map_.classify(request.addr)) {
    case Region::kSpmSeq:
    case Region::kSpmInterleaved: {
      const BankTarget t = map_.spm_target(request.addr);
      const bool local = t.tile == src_tile;
      const u32 net = local ? 0 : noc_->network(src_tile, t.tile);
      if (!local && !noc_->can_push_request(src_tile, net, cycle_)) {
        return IssueResult::kPortBusy;
      }
      // The access travels by value with its LSU slot's handle.
      const u32 handle = u32{request.core} << lsu_shift_ | request.tag;
      BankRequest access;
      access.word = (request.addr - cfg_.spm_base) >> 2;
      access.data = request.wdata;
      access.tile = static_cast<u16>(src_tile);
      access.op = request.op;
      access.lane = static_cast<u8>(request.addr & 3U);
      MP3D_ASSERT(t.bank == (access.word & (cfg_.banks_per_tile - 1)));
      if (request.op == isa::Op::kLrW || request.op == isa::Op::kScW) {
        group.lr_sc = true;
      }
      if (local) {
        // Local crossbar: the bank sees it next cycle.
        const u32 gb = t.tile * cfg_.banks_per_tile + t.bank;
        banks_[gb].push(cycle_ + 1, handle, access);
        activate_bank(group, gb);
      } else {
        noc_->push_request(src_tile, t.tile, net, handle, access, cycle_);
      }
      ++group.activity;
      return IssueResult::kAccepted;
    }
    case Region::kCtrl:
      group.queued.push_back(QueuedRequest{QueuedRequest::Kind::kCtrl, 0, request});
      ++group.activity;
      return IssueResult::kAccepted;
    case Region::kGmem:
      group.queued.push_back(QueuedRequest{QueuedRequest::Kind::kGmem, 0, request});
      ++group.activity;
      return IssueResult::kAccepted;
    case Region::kInvalid:
    default:
      return fault_access(request, "access to unmapped address");
  }
}

IssueResult Cluster::fault_access(const MemRequest& request, const std::string& what) {
  std::ostringstream oss;
  oss << what << " 0x" << std::hex << request.addr;
  cores_[request.core].fault(oss.str());
  return IssueResult::kAccepted;
}

void Cluster::request_icache_refill(u32 tile, u32 pc) {
  icaches_[tile].begin_refill(pc);
  Group& group = groups_[tile >> group_shift_];
  MemRequest fetch;
  fetch.addr = pc;
  group.queued.push_back(QueuedRequest{QueuedRequest::Kind::kRefill, tile, fetch});
  ++group.activity;
}

void Cluster::replay_requests(const Group& group) {
  for (const QueuedRequest& queued : group.queued) {
    switch (queued.kind) {
      case QueuedRequest::Kind::kGmem:
        gmem_->enqueue(queued.request, cycle_);
        if (qos_ != nullptr) {
          gmem_issue_cycles_.push_back(cycle_);
        }
        break;
      case QueuedRequest::Kind::kCtrl: {
        MemRequest copy = queued.request;
        copy.ready_at = cycle_ + 1;
        ctrl_queue_.push_back(copy);
        break;
      }
      case QueuedRequest::Kind::kRefill: {
        const TileICache& icache = icaches_[queued.tile];
        const std::pair<u32, u32> slot{queued.tile, icache.line_addr(queued.request.addr)};
        u32 token = 0;
        if (!refill_free_.empty()) {
          token = refill_free_.back();
          refill_free_.pop_back();
          refill_slots_[token] = slot;
        } else {
          token = static_cast<u32>(refill_slots_.size());
          refill_slots_.push_back(slot);
        }
        gmem_->enqueue_refill(token, icache.line_bytes(), cycle_);
        break;
      }
    }
  }
}

void Cluster::deliver_response_to_core(const MemResponse& response) {
  SnitchCore& core = cores_[response.core];
  core.deliver(response);
  if (core.wait() != Wait::kNone) {
    unpark(response.core);
  }
  ++group_of(response.core).activity;
}

void Cluster::unpark(u32 core) {
  SnitchCore& c = cores_[core];
  const Wait wait = c.wait();
  if (wait == Wait::kNone) {
    return;
  }
  Group& group = group_of(core);
  MP3D_ASSERT(group.parked[wait_index(wait)] > 0);
  --group.parked[wait_index(wait)];
  c.resume();
  if (!c.halted()) {
    activate_core(core);
  }
}

void Cluster::deliver_spm_response(u32 handle, u32 rdata) {
  const auto core = static_cast<u16>(handle >> lsu_shift_);
  const auto tag = static_cast<u8>(handle & ((1U << lsu_shift_) - 1));
  deliver_response_to_core(MemResponse{rdata, core, tag});
}

void Cluster::deliver_remote_request(Group& group, u32 dst_tile, u32 handle,
                                     const BankRequest& access) {
  // In both SPM regions a word's bank within its tile is the word index
  // modulo the banks per tile.
  const u32 gb = dst_tile * cfg_.banks_per_tile + (access.word & (cfg_.banks_per_tile - 1));
  banks_[gb].push(cycle_, handle, access);
  activate_bank(group, gb);
  ++group.activity;
}

void Cluster::serve_banks(Group& group) {
  sim::LineVector<u32>& active = group.active_banks;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const u32 gb = active[i];
    SpmBank& bank = banks_[gb];
    if (bank.has_ready(cycle_)) {
      const BankRequest& front = bank.front();
      const u32 bank_tile = gb >> bank_tile_shift_;
      // The response goes back on the request's network (it is symmetric).
      const bool local = front.tile == bank_tile;
      const u32 net = local ? 0 : noc_->network(bank_tile, front.tile);
      if (local || noc_->can_push_response(bank_tile, net, cycle_)) {
        const SpmBank::Entry served = bank.serve(cycle_, spm_, spm_reservations_, lsu_shift_);
        ++group.activity;
        if (local) {
          deliver_spm_response(served.handle, served.request.data);
        } else {
          noc_->push_response(bank_tile, served.request.tile, net, served.handle, served.request,
                              cycle_);
        }
      }
    }
    if (bank.busy()) {
      active[keep++] = gb;
    } else {
      bank_active_flag_[gb] = 0;
    }
  }
  active.resize(keep);
}

void Cluster::dma_read_spm(u32 addr, std::span<u32> words) {
  MP3D_ASSERT(map_.is_spm(addr) && u64{addr} + words.size() * 4 <=
                                       u64{cfg_.spm_base} + cfg_.spm_capacity);
  std::copy_n(spm_.begin() + ((addr - cfg_.spm_base) >> 2), words.size(), words.begin());
}

void Cluster::dma_write_spm(u32 addr, std::span<const u32> words) {
  spm_write_words(addr, words);
}

void Cluster::dma_wake_core(u32 core) {
  MP3D_ASSERT(core < cores_.size());  // validated at kDmaStart
  // Deliver the wake only when the target is committed to consuming it:
  // either already in wfi, or armed (its last kDmaStatus read was nonzero,
  // so a wfi is on the way in program order). A busy, unarmed core is
  // skipped — it will observe the drained count on its next status read —
  // so no token leaks into an unrelated later wfi (e.g. the barrier's).
  SnitchCore& target = cores_[core];
  if (target.asleep() || dma_wake_armed_[core] != 0) {
    target.wake(cycle_);
    ++dma_wakes_;
    ++activity_;
  } else {
    ++dma_wakes_suppressed_;
  }
  dma_wake_armed_[core] = 0;
}

bool Cluster::dma_start(const MemRequest& request) {
  const DmaStage& st = dma_stage_[request.core];
  const auto fail = [&](const std::string& why) {
    cores_[request.core].fault("invalid DMA descriptor: " + why);
    return false;
  };
  if (st.len == 0 || st.len % 4 != 0) {
    return fail("row length must be a positive multiple of 4");
  }
  if (st.rows == 0) {
    return fail("row count must be at least 1");
  }
  if (((st.src | st.dst | st.stride) & 3U) != 0) {
    return fail("addresses and stride must be word aligned");
  }
  const Region src_region = map_.classify(st.src);
  const Region dst_region = map_.classify(st.dst);
  const bool src_spm =
      src_region == Region::kSpmSeq || src_region == Region::kSpmInterleaved;
  const bool dst_spm =
      dst_region == Region::kSpmSeq || dst_region == Region::kSpmInterleaved;
  bool to_spm = false;
  if (src_region == Region::kGmem && dst_spm) {
    to_spm = true;
  } else if (src_spm && dst_region == Region::kGmem) {
    to_spm = false;
  } else {
    return fail("exactly one side must be global memory, the other SPM");
  }
  const u64 linear_bytes = static_cast<u64>(st.len) * st.rows;
  const u64 gmem_first = to_spm ? st.src : st.dst;
  const u64 gmem_last =
      gmem_first + static_cast<u64>(st.rows - 1) * st.stride + st.len - 4;
  if (gmem_last > 0xFFFF'FFFFULL ||
      map_.classify(static_cast<u32>(gmem_last)) != Region::kGmem) {
    return fail("gmem side walks out of the global memory window");
  }
  const u64 spm_first = to_spm ? st.dst : st.src;
  const u64 spm_last = spm_first + linear_bytes - 4;
  if (spm_last > 0xFFFF'FFFFULL || !map_.is_spm(static_cast<u32>(spm_last))) {
    return fail("SPM side runs past the scratchpad");
  }
  if (st.wake != kDmaNoWaker && st.wake >= cfg_.num_cores()) {
    return fail("waker core id " + std::to_string(st.wake) + " out of range");
  }
  DmaDescriptor d;
  d.src = st.src;
  d.dst = st.dst;
  d.bytes_per_row = st.len;
  d.rows = st.rows;
  d.gmem_stride = st.stride;
  d.to_spm = to_spm;
  d.core = request.core;
  d.waker = st.wake;
  dma_->push(core_group(request.core), d, cycle_);
  ++activity_;
  return true;
}

void Cluster::ctrl_access(const MemRequest& request) {
  const u32 offset = request.addr - cfg_.ctrl_base;
  MemResponse resp{0, request.core, request.tag};
  const bool is_write = isa::is_store(request.op);
  switch (offset) {
    case ctrl::kEoc:
      if (is_write) {
        eoc_ = true;
        eoc_code_ = request.wdata;
      }
      break;
    case ctrl::kWakeOne:
      if (is_write && request.wdata < cores_.size()) {
        cores_[request.wdata].wake(cycle_);
      }
      break;
    case ctrl::kWakeAll:
      if (is_write) {
        for (SnitchCore& core : cores_) {
          if (core.global_id() != request.core) {
            core.wake(cycle_);
          }
        }
      }
      break;
    case ctrl::kPutChar:
      if (is_write) {
        console_.push_back(static_cast<char>(request.wdata & 0xFF));
      }
      break;
    case ctrl::kCycle:
      resp.rdata = static_cast<u32>(cycle_);
      break;
    case ctrl::kMarker:
      if (is_write) {
        markers_.push_back(RunResult::Marker{request.wdata, request.core, cycle_});
        if (trace_ != nullptr) {
          trace_->instant(marker_track_, ev_marker_, cycle_, request.wdata);
        }
      }
      break;
    case ctrl::kNumCores:
      resp.rdata = cfg_.num_cores();
      break;
    case ctrl::kCoresPerTile:
      resp.rdata = cfg_.cores_per_tile;
      break;
    case ctrl::kNumTiles:
      resp.rdata = cfg_.num_tiles();
      break;
    case ctrl::kDmaSrc:
      if (is_write) {
        dma_stage_[request.core].src = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].src;
      }
      break;
    case ctrl::kDmaDst:
      if (is_write) {
        dma_stage_[request.core].dst = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].dst;
      }
      break;
    case ctrl::kDmaLen:
      if (is_write) {
        dma_stage_[request.core].len = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].len;
      }
      break;
    case ctrl::kDmaStride:
      if (is_write) {
        dma_stage_[request.core].stride = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].stride;
      }
      break;
    case ctrl::kDmaRows:
      if (is_write) {
        dma_stage_[request.core].rows = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].rows;
      }
      break;
    case ctrl::kDmaStart:
      // Reading the start register is always a programming error; catch it
      // loudly rather than returning a meaningless 0.
      if (!is_write) {
        cores_[request.core].fault("read from the write-only DMA start register");
        return;
      }
      if (!dma_start(request)) {
        return;  // faulted: no response will arrive
      }
      break;
    case ctrl::kDmaStatus:
      // A write here is almost certainly a mistyped kDmaStart; silently
      // accepting it would skip the transfer and compute on stale data.
      if (is_write) {
        cores_[request.core].fault("write to the read-only DMA status register");
        return;
      }
      resp.rdata = dma_->pending(core_group(request.core));
      // A nonzero read arms the completion wake: the reader is headed for
      // wfi, so the next completion naming it as waker must not be
      // suppressed even if it lands before the wfi executes.
      dma_wake_armed_[request.core] = resp.rdata != 0 ? 1 : 0;
      ++dma_status_reads_;
      break;
    case ctrl::kDmaWake:
      if (is_write) {
        dma_stage_[request.core].wake = request.wdata;
      } else {
        resp.rdata = dma_stage_[request.core].wake;
      }
      break;
    case ctrl::kDmaTicket:
      if (is_write) {
        cores_[request.core].fault("write to the read-only DMA ticket register");
        return;
      }
      resp.rdata = static_cast<u32>(dma_->issued(core_group(request.core)));
      break;
    case ctrl::kDmaWaitId:
      if (is_write) {
        dma_wait_target_[request.core] = request.wdata;
      } else {
        resp.rdata = dma_wait_target_[request.core];
      }
      break;
    case ctrl::kDmaRetired:
      if (is_write) {
        cores_[request.core].fault("write to the read-only DMA retired register");
        return;
      }
      resp.rdata = static_cast<u32>(dma_->retired(core_group(request.core)));
      // Arm the completion wake iff the staged ticket is still in flight:
      // the reader is headed for wfi and the retiring descriptor's wake
      // must not be suppressed, exactly as for a nonzero kDmaStatus read.
      dma_wake_armed_[request.core] =
          resp.rdata < dma_wait_target_[request.core] ? 1 : 0;
      ++dma_retired_reads_;
      break;
    default:
      cores_[request.core].fault("access to undefined ctrl register offset " +
                                  std::to_string(offset));
      return;
  }
  deliver_response_to_core(resp);
}

void Cluster::serve_ctrl() {
  // A start write back-pressures while every DMA engine of the writer's
  // group is full. Only the issuing core's later ctrl accesses are held
  // behind it (program order); other cores' requests are served past the
  // blocked entry so one saturated group cannot stall the whole cluster.
  // The hold bookkeeping is set up lazily: the common case (status polls,
  // markers, barrier wake-ups) stays a plain FIFO drain.
  bool holding = false;
  while (!ctrl_queue_.empty() && ctrl_queue_.front().ready_at <= cycle_) {
    const MemRequest req = ctrl_queue_.front();
    ctrl_queue_.pop_front();
    if (holding && ctrl_blocked_[req.core]) {
      ctrl_held_.push_back(req);
      continue;
    }
    if (req.addr - cfg_.ctrl_base == ctrl::kDmaStart && isa::is_store(req.op) &&
        !dma_->can_accept(core_group(req.core))) {
      if (!holding) {
        holding = true;
        ctrl_blocked_.assign(cfg_.num_cores(), 0);
        ctrl_held_.clear();
        dma_->note_queue_full_stall();  // at most once per cycle
      }
      ctrl_blocked_[req.core] = 1;
      ctrl_held_.push_back(req);
      continue;
    }
    ctrl_access(req);
  }
  if (holding) {
    // Re-queue held entries ahead of the not-yet-ready tail, order preserved.
    for (auto it = ctrl_held_.rbegin(); it != ctrl_held_.rend(); ++it) {
      ctrl_queue_.push_front(*it);
    }
    ctrl_held_.clear();
  }
}

void Cluster::step() {
  ++cycle_;

  // Host self-profiling. next_prof_at_ is kNever unless profiling is on;
  // on unsampled cycles the timer holds null and every mark is a dead
  // null check, so the simulation's phase order below is untouched.
  const bool prof_sampled = cycle_ >= next_prof_at_;
  prof_sampled_ = prof_sampled;
  prof::StepTimer timer(prof_sampled ? prof_.get() : nullptr);

  // ---- head ------------------------------------------------------------------
  // 1. Global memory: bandwidth-limited service; completions this cycle.
  // The DMA engines' aggregate backlog is handed to the channel arbiter so
  // a nonzero bulk guarantee reserves bytes only while bulk demand exists.
  gmem_responses_.clear();
  gmem_refills_.clear();
  gmem_->step(cycle_, gmem_responses_, gmem_refills_, dma_->backlog_bytes());
  timer.mark(prof::Phase::kGmem);
  // Refills and responses go to their group's inbox; its section lands
  // and delivers them before anything else.
  for (const u32 token : gmem_refills_) {
    const auto [tile, line_addr] = refill_slots_[token];
    inboxes_[tile >> group_shift_].refills.emplace_back(tile, line_addr);
    refill_free_.push_back(token);
    ++activity_;
  }
  timer.mark(prof::Phase::kIcache);
  for (const MemResponse& resp : gmem_responses_) {
    if (qos_ != nullptr) {
      // FIFO service order: responses complete in issue order (refills
      // travel in their own vector), so the front stamp is this response's.
      qos_->observe_scalar_latency(cycle_ - gmem_issue_cycles_.front());
      gmem_issue_cycles_.pop_front();
    }
    inboxes_[core_group(resp.core)].responses.push_back(resp);
  }
  timer.mark(prof::Phase::kGmem);

  // 1b. DMA engines: bulk transfers claim the byte budget the cycle's
  // scalar and refill traffic left over, moving words straight into the
  // SPM banks through the engines' dedicated wide port.
  activity_ += dma_->step(cycle_, *gmem_, *this);
  timer.mark(prof::Phase::kDma);

  // 1c. Adaptive gmem-share controller: on its window boundaries, observe
  // the closed window's scalar p99 + bulk pressure and re-actuate the
  // live share (one compare per cycle otherwise).
  if (qos_ != nullptr) {
    qos_->step(cycle_);
  }
  timer.mark(prof::Phase::kQos);

  // 1d. Control peripherals. They serve requests queued in earlier cycles,
  // and nothing the networks or banks do this cycle reads or writes what
  // they touch: their wakes and responses are consumed by phase 5, and a
  // DMA start by the next cycle's DMA step, as when they ran after the
  // banks. A ctrl response reaches its core before the cycle's gmem
  // responses (the sections deliver those): the two retire different LSU
  // slots, so the order changes no state.
  serve_ctrl();
  timer.mark(prof::Phase::kCtrl);

  // ---- one section per group ---------------------------------------------
  noc_->begin_cycle(cycle_);
  const u32 budget = cfg_.num_groups == 1 ? 1 : std::min(cfg_.num_groups, sim::host_thread_budget());
  const bool in_order =
      budget <= 1 || trace_ != nullptr || sections_in_order_ || awake_cores() < cores_per_group_;
  if (in_order) {
    for (Group& group : groups_) {
      run_section(group, timer);
    }
  } else {
    if (pool_ == nullptr || pool_->threads() != budget) {
      pool_.reset();
      pool_ = std::make_unique<sim::ForkJoin>(budget - 1);
    }
    pool_->run(cfg_.num_groups, section_job_);
    if (prof_sampled) {
      timer.skip();
      for (Group& group : groups_) {
        for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
          prof_->add(static_cast<prof::Phase>(p), group.phase_ns[p]);
        }
        group.phase_ns.fill(0);
      }
    }
  }

  // ---- tail ------------------------------------------------------------------
  noc_->end_cycle(cycle_);
  timer.mark(prof::Phase::kNoc);
  // The cores' requests of the cluster-wide queues, in group order, which
  // is ascending core id: the order the cores stepped in. The tail only
  // reads the groups, and writes its own flags only when they change.
  for (const Group& group : groups_) {
    replay_requests(group);
    if (group.lr_sc && !sections_in_order_) {
      sections_in_order_ = true;
    }
    if (group.fault && !fault_) {
      fault_ = true;
    }
  }
  timer.mark(prof::Phase::kCores);

  // 6. Telemetry. next_sample_at_ is kNever unless windowed sampling is
  // on, so the disabled path costs exactly this comparison.
  if (cycle_ >= next_sample_at_) {
    sample_window();
  }
  timer.mark(prof::Phase::kTelemetry);

  if (prof_sampled) {
    next_prof_at_ += prof_->stride();
    timer.finish(cycle_);
  }
}

void Cluster::SectionJob::operator()(u32 g) const {
  Group& group = cluster->groups_[g];
  prof::SectionTimer timer(cluster->prof_sampled_ ? &group.phase_ns : nullptr);
  cluster->run_section(group, timer);
}

template <typename Timer>
void Cluster::run_section(Group& group, Timer& timer) {
  // Issue the loads of the lines other threads wrote since this section's
  // last cycle before using any of them: the clocks, the inbox and the
  // heads of the mailboxes the group copies from.
  Inbox& inbox = inboxes_[group.index];
  __builtin_prefetch(&cycle_);
  __builtin_prefetch(&inbox);
  noc_->prefetch_group(group.index);

  // 1. What the head handed over: refills that landed on the group's
  // tiles (the new line may evict a parked core's, whose next step must
  // fetch), then gmem responses to its cores.
  if (!inbox.refills.empty()) {
    for (const auto& [tile, line_addr] : inbox.refills) {
      icaches_[tile].finish_refill(line_addr);
      for (u32 c = tile * cfg_.cores_per_tile; c < (tile + 1) * cfg_.cores_per_tile; ++c) {
        unpark(c);
      }
    }
    inbox.refills.clear();
  }
  timer.mark(prof::Phase::kIcache);
  if (!inbox.responses.empty()) {
    for (const MemResponse& resp : inbox.responses) {
      deliver_response_to_core(resp);
    }
    inbox.responses.clear();
  }
  timer.mark(prof::Phase::kGmem);
  group.queued.clear();  // the tail replayed them

  // 2. Request network: the flits bound for this group's tiles.
  noc_->begin_group(group.index);
  noc_->deliver_requests(group.index, cycle_,
                         [&](u32 dst_tile, u32 handle, const BankRequest& access) {
                           deliver_remote_request(group, dst_tile, handle, access);
                         });
  timer.mark(prof::Phase::kNoc);

  // 3. This group's banks.
  serve_banks(group);
  timer.mark(prof::Phase::kBanks);

  // 4. Response network: the flits bound for this group's tiles.
  noc_->deliver_responses(group.index, cycle_,
                          [this](u32 /*dst_tile*/, u32 handle, const BankRequest& access) {
                            deliver_spm_response(handle, access.data);
                          });
  timer.mark(prof::Phase::kNoc);

  // 5. This group's cores.
  step_cores(group);
  timer.mark(prof::Phase::kCores);
}

void Cluster::step_cores(Group& group) {
  // Only the active set is stepped. Token-less sleepers and parked cores
  // are charged in bulk (identical to each bumping its own wfi or stall
  // counter); a step that parks or sleeps clears the core's bit. Wakes and
  // un-parks land in phases 1-4 only, so the set is stable while
  // iterating; it steps in ascending id because request FIFO ordering into
  // the banks, networks, and queues follows core step order.
  group.wfi_idle_cycles += cores_per_group_ - group.awake - group.halted;
  for (std::size_t r = 0; r < kNumWaits; ++r) {
    group.parked_cycles[r] += group.parked[r];
  }
  for (std::size_t w = 0; w < group.active.size(); ++w) {
    for (u64 bits = group.active[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<u32>(std::countr_zero(bits));
      SnitchCore& core = cores_[group.first_core + w * 64 + bit];
      group.activity += core.step(cycle_) ? 1 : 0;  // a retired instruction is progress
      if (const Wait wait = core.wait(); wait != Wait::kNone) {
        ++group.parked[wait_index(wait)];
        group.active[w] &= ~(u64{1} << bit);
      } else if (!core.runnable()) {
        group.active[w] &= ~(u64{1} << bit);
      }
    }
  }
}

void Cluster::sample_window() {
  sim::CounterSet totals;
  collect_counters(totals);
  std::vector<std::pair<std::string, double>> gauges;
  gauges.emplace_back("dma.backlog_bytes", static_cast<double>(dma_->backlog_bytes()));
  // At sampling time (after phase 5) every delivered wake token has been
  // consumed, so the runnable count equals the old per-core kRunning scan.
  gauges.emplace_back("cores.awake", static_cast<double>(awake_cores()));
  telemetry_->timeline()->sample(cycle_, std::move(totals), std::move(gauges));
  next_sample_at_ += telemetry_->timeline()->window_cycles();
}

void Cluster::note_core_asleep(u16 core) {
  Group& group = group_of(core);
  MP3D_ASSERT(group.awake > 0);
  --group.awake;
}

void Cluster::note_core_awake(u16 core) {
  ++group_of(core).awake;
  activate_core(core);
}

void Cluster::note_core_halted(u16 core, bool was_awake) {
  unpark(core);  // a fault can reach a parked core: stop its charge
  Group& group = group_of(core);
  ++group.halted;
  group.fault |= cores_[core].state() == CoreState::kError;
  if (was_awake) {
    MP3D_ASSERT(group.awake > 0);
    --group.awake;
  }
}

sim::Cycle Cluster::next_wake(sim::Cycle bound) const {
  // Consulted on every all-asleep cycle, so the sources are consulted
  // cheapest-first and the attempt bails as soon as the next cycle is
  // pinned. DMA streaming does not pin it: skip_to advances the gmem
  // channel and the engines through the span, and the DMA bound below
  // keeps every retire (and so every completion wake) past it.
  const sim::Cycle floor = cycle_ + 1;
  for (const Group& group : groups_) {
    if (!group.active_banks.empty()) {
      return floor;  // queued bank work is served every cycle
    }
  }
  if (!ctrl_queue_.empty() && ctrl_queue_.front().ready_at <= floor) {
    return floor;
  }
  sim::Cycle target = std::min(bound, gmem_->next_completion_cycle(cycle_));
  if (target <= floor) {
    return floor;  // scalar requests queued at the channel
  }
  target = std::min(target, dma_->next_ready_cycle(cycle_));
  if (target <= floor) {
    return floor;
  }
  target = std::min(target, noc_->next_event_cycle(cycle_));
  if (!ctrl_queue_.empty()) {
    target = std::min(target, ctrl_queue_.front().ready_at);
  }
  return target;
}

sim::Cycle Cluster::horizon() const {
  sim::Cycle next = std::min(next_sample_at_, next_prof_at_);  // kNever when off
  if (qos_ != nullptr) {
    next = std::min(next, qos_->next_window());
  }
  return next;
}

sim::Cycle Cluster::skip_to(sim::Cycle target) {
  // By the wake oracle only the gmem channel and the DMA engines have work
  // before `target`: no scalar work is queued, no completion, refill or
  // NoC flit lands, no bank or ctrl work is due and no descriptor retires,
  // so no core wakes and the engines have the channel to themselves. The
  // span advances by runs of cycles that repeat one grant pattern, each
  // in one call (DmaSubsystem::stream); a span with nothing to stream is
  // one run.
  sim::Cycle last_active = 0;
  while (cycle_ + 1 < target) {
    const DmaSubsystem::Run run = dma_->stream(cycle_ + 1, target - cycle_ - 1, *gmem_, *this);
    cycle_ += run.cycles;
    ff_skipped_cycles_ += run.cycles;
    // Every non-halted core is a token-less sleeper here.
    for (Group& group : groups_) {
      group.wfi_idle_cycles += run.cycles * (cores_per_group_ - group.halted);
    }
    if (run.bytes > 0) {
      activity_ += run.bytes;
      last_active = cycle_;  // every cycle of a run with bytes grants some
    }
  }
  MP3D_ASSERT(awake_cores() == 0);
  return last_active;
}

std::string Cluster::deadlock_diagnostic() const {
  std::ostringstream oss;
  oss << "no progress for " << sim::kDeadlockWindow << " cycles at cycle " << cycle_ << "\n";
  u32 shown = 0;
  for (const auto& core : cores_) {
    if (shown >= 8) {
      oss << "  ... (" << cores_.size() - shown << " more cores)\n";
      break;
    }
    oss << "  core " << core.global_id() << ": state="
        << static_cast<int>(core.state()) << " pc=0x" << std::hex << core.pc()
        << std::dec << " outstanding=" << (core.lsu_idle() ? "no" : "yes") << "\n";
    ++shown;
  }
  return oss.str();
}

void Cluster::collect_counters(sim::CounterSet& counters) const {
  for (const SnitchCore& core : cores_) {
    core.add_counters(counters);
  }
  // Bulk-charged sleep cycles from phase 5 / fast-forward jumps and parked
  // cycles from phase 5; same aggregated keys every core bumps, so the sums
  // stay bit-identical.
  u64 wfi_idle = 0;
  std::array<u64, kNumWaits> parked{};
  for (const Group& group : groups_) {
    wfi_idle += group.wfi_idle_cycles;
    for (std::size_t r = 0; r < kNumWaits; ++r) {
      parked[r] += group.parked_cycles[r];
    }
  }
  counters.bump("core.wfi_cycles", wfi_idle);
  counters.bump("core.stall_raw", parked[wait_index(Wait::kRaw)]);
  counters.bump("core.stall_lsu_full", parked[wait_index(Wait::kLsuFull)]);
  counters.bump("core.stall_fence", parked[wait_index(Wait::kFence)]);
  u64 bank_accesses = 0;
  u64 bank_reads = 0;
  u64 bank_writes = 0;
  u64 bank_conflicts = 0;
  u64 bank_wait = 0;
  for (const SpmBank& bank : banks_) {
    bank_accesses += bank.accesses();
    bank_reads += bank.reads();
    bank_writes += bank.writes();
    bank_conflicts += bank.conflicts();
    bank_wait += bank.conflict_wait_cycles();
  }
  counters.set("bank.accesses", bank_accesses);
  counters.set("bank.reads", bank_reads);
  counters.set("bank.writes", bank_writes);
  counters.set("bank.conflicts", bank_conflicts);
  counters.set("bank.conflict_wait_cycles", bank_wait);
  for (const TileICache& icache : icaches_) {
    icache.add_counters(counters);
  }
  // A parked core's every repeated step would have hit in its icache.
  counters.bump("icache.hits", std::accumulate(parked.begin(), parked.end(), u64{0}));
  noc_->add_counters(counters);
  gmem_->add_counters(counters);
  dma_->add_counters(counters);
  if (qos_ != nullptr) {
    qos_->add_counters(counters);
  }
  counters.set("dma.wakes", dma_wakes_);
  counters.set("dma.wakes_suppressed", dma_wakes_suppressed_);
  counters.set("dma.status_reads", dma_status_reads_);
  counters.set("dma.retired_reads", dma_retired_reads_);
  counters.set("cycles", cycle_);
}

RunResult Cluster::end_run(bool eoc, bool deadlock, bool hit_max) {
  RunResult result;
  result.cycles = cycle_;
  result.eoc = eoc;
  result.deadlock = deadlock;
  result.fault = fault_;
  result.hit_max_cycles = hit_max;
  result.exit_code = eoc_code_;
  result.markers = markers_;
  result.console = console_;
  result.core_exit_codes.reserve(cores_.size());
  result.instret.reserve(cores_.size());
  result.core_errors.resize(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    result.core_exit_codes.push_back(cores_[i].exit_code());
    result.instret.push_back(cores_[i].instret());
    result.core_errors[i] = cores_[i].error_message();
  }
  collect_counters(result.counters);
  if (prof_ != nullptr) {
    prof_->note_total_cycles(cycle_);
  }
  if (telemetry_ != nullptr) {
    if (trace_ != nullptr) {
      // Balance spans still open at run end (sleeping cores, a stall in
      // progress) so the exported JSON pairs every B with an E.
      gmem_->close_trace_spans(cycle_);
      for (SnitchCore& core : cores_) {
        core.close_trace_span(cycle_);
      }
    }
    obs::Timeline* timeline = telemetry_->timeline();
    if (timeline != nullptr && cycle_ >= timeline->next_lo()) {
      sample_window();  // final partial window
    }
  }
  return result;
}

RunResult Cluster::run(u64 max_cycles) {
  MP3D_CHECK(image_ != nullptr, "no program loaded");
  const sim::RunEnd end = sim::drive(*this, max_cycles);
  if (end == sim::RunEnd::kDeadlock) {
    MP3D_WARN("deadlock: " << deadlock_diagnostic());
  }
  RunResult result = end_run(end == sim::RunEnd::kDone && eoc_,
                             end == sim::RunEnd::kDeadlock, end == sim::RunEnd::kMaxCycles);
  if (telemetry_ != nullptr) {
    obs::collect_run(*telemetry_);  // no-op without an active global request
  }
  return result;
}

}  // namespace mp3d::arch
