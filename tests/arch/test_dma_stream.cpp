// SPDX-License-Identifier: Apache-2.0
// DmaSubsystem::stream, the run advance of a fast-forward jump, against
// the per-cycle loop it replaces: two copies of a GlobalMemory and a
// DmaSubsystem see the same descriptors and scalar traffic, and every
// bulk-only span goes through stream() runs on one copy and through
// GlobalMemory::step + DmaSubsystem::step, cycle by cycle, on the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/dma.hpp"
#include "arch/global_mem.hpp"
#include "common/prng.hpp"
#include "obs/trace.hpp"

namespace mp3d::arch {
namespace {

/// SPM stand-in, one map entry per word address.
class FakeSpm : public DmaSpmPort {
 public:
  void dma_read_spm(u32 addr, std::span<u32> words) override {
    for (u32& word : words) {
      word = words_[addr];
      addr += 4;
    }
  }
  void dma_write_spm(u32 addr, std::span<const u32> words) override {
    for (const u32 word : words) {
      words_[addr] = word;
      addr += 4;
    }
  }
  void dma_wake_core(u32 core) override { wakes_.push_back(core); }
  std::unordered_map<u32, u32> words_;
  std::vector<u32> wakes_;
};

/// One channel with its engines, an SPM and an optional trace.
struct Rig {
  Rig(const ClusterConfig& cfg, bool traced)
      : gmem(cfg.gmem_base, cfg.gmem_size, cfg.gmem_bytes_per_cycle, cfg.gmem_latency,
             cfg.gmem_arbiter),
        dma(cfg) {
    if (traced) {
      trace = std::make_unique<obs::Trace>(u64{1} << 20);
      gmem.set_trace(trace.get(), trace->add_track("gmem", 0, "bulk", 0),
                     trace->add_track("gmem", 0, "scalar", 1));
      std::vector<u32> tracks;
      for (u32 e = 0; e < cfg.num_groups * cfg.dma.engines_per_group; ++e) {
        tracks.push_back(trace->add_track("dma", 1, "engine" + std::to_string(e), e));
      }
      dma.set_trace(trace.get(), tracks);
    }
  }

  /// One cycle as Cluster::step runs the channel and the engines.
  void step(sim::Cycle now) {
    responses.clear();
    refills.clear();
    gmem.step(now, responses, refills, dma.backlog_bytes());
    if (dma.step(now, gmem, spm) > 0) {
      last_active = now;
    }
  }

  /// Cycles first..last as Cluster::skip_to runs them.
  void stream(sim::Cycle first, sim::Cycle last) {
    for (sim::Cycle c = first; c <= last;) {
      const DmaSubsystem::Run run = dma.stream(c, last - c + 1, gmem, spm);
      c += run.cycles;
      if (run.bytes > 0) {
        last_active = c - 1;
        streamed_cycles += run.cycles > 1 ? run.cycles : 0;
      }
    }
  }

  sim::CounterSet counters() const {
    sim::CounterSet set;
    gmem.add_counters(set);
    dma.add_counters(set);
    return set;
  }

  GlobalMemory gmem;
  DmaSubsystem dma;
  FakeSpm spm;
  std::unique_ptr<obs::Trace> trace;
  std::vector<MemResponse> responses;
  std::vector<u32> refills;
  sim::Cycle last_active = 0;
  u64 streamed_cycles = 0;  ///< in runs longer than a cycle that grant bytes
};

/// Everything the two rigs must agree on after a span.
void expect_same_state(const Rig& runs, const Rig& cycles, const ClusterConfig& cfg,
                       sim::Cycle now, const std::string& where) {
  SCOPED_TRACE(where + " at cycle " + std::to_string(now));
  EXPECT_EQ(runs.counters(), cycles.counters());
  EXPECT_EQ(runs.dma.rotation(), cycles.dma.rotation());
  EXPECT_EQ(runs.dma.backlog_bytes(), cycles.dma.backlog_bytes());
  EXPECT_EQ(runs.dma.next_ready_cycle(now), cycles.dma.next_ready_cycle(now));
  EXPECT_EQ(runs.gmem.budget_left(), cycles.gmem.budget_left());
  EXPECT_EQ(runs.last_active, cycles.last_active);
  EXPECT_EQ(runs.spm.wakes_, cycles.spm.wakes_);
  for (u32 g = 0; g < cfg.num_groups; ++g) {
    EXPECT_EQ(runs.dma.pending(g), cycles.dma.pending(g));
    EXPECT_EQ(runs.dma.retired(g), cycles.dma.retired(g));
  }
}

/// Random descriptor mixes over random channel, port, latency, arbiter and
/// trace settings. Transfers stay inside a small or a large window of
/// each memory, so some trials overlap concurrent transfers and some
/// cross a gmem page.
TEST(DmaStream, RunsMatchTheCycleByCycleLoop) {
  Prng prng(0x5EED'D3A5ULL);
  constexpr u32 kSpmBase = 0x1000;
  u64 spans = 0;
  u64 streamed_cycles = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ClusterConfig cfg = ClusterConfig::mini();
    cfg.num_groups = std::vector<u32>{1, 2, 4}[prng.below(3)];
    cfg.tiles_per_group = 2;
    cfg.dma.engines_per_group = static_cast<u32>(prng.range(1, 3));
    cfg.dma.bytes_per_cycle = 4 * static_cast<u32>(prng.range(1, 16));
    cfg.gmem_bytes_per_cycle = static_cast<u32>(prng.range(4, 64));
    cfg.gmem_latency = std::vector<u32>{0, 1, 4, 300}[prng.below(4)];
    cfg.gmem_arbiter.bulk_min_pct = prng.chance(0.5) ? 30 : 0;
    cfg.validate();
    const bool traced = prng.chance(0.5);
    SCOPED_TRACE("trial " + std::to_string(trial));
    Rig by_runs(cfg, traced);
    Rig by_cycles(cfg, traced);

    // Small windows make concurrent transfers overlap; the large gmem
    // window crosses a 64 KiB page.
    const bool small = prng.chance(0.3);
    const u32 gmem_window = small ? 1024 : 160 * 1024;
    const u32 spm_window = small ? 1024 : 64 * 1024;
    for (u32 i = 0; i < 512; ++i) {
      const u32 gmem_addr = cfg.gmem_base + 4 * static_cast<u32>(prng.below(gmem_window / 4));
      const u32 spm_addr = kSpmBase + 4 * static_cast<u32>(prng.below(spm_window / 4));
      const u32 value = prng.next_u32();
      by_runs.gmem.write_word(gmem_addr, value);
      by_cycles.gmem.write_word(gmem_addr, value);
      by_runs.spm.words_[spm_addr] = ~value;
      by_cycles.spm.words_[spm_addr] = ~value;
    }

    const auto push_random = [&](sim::Cycle now) {
      const u32 group = static_cast<u32>(prng.below(cfg.num_groups));
      if (!by_runs.dma.can_accept(group)) {
        return;
      }
      DmaDescriptor d;
      d.bytes_per_row = 4 * static_cast<u32>(prng.range(1, prng.chance(0.3) ? 1024 : 64));
      d.rows = static_cast<u32>(prng.range(1, 4));
      d.gmem_stride = prng.chance(0.1) ? 4 * static_cast<u32>(prng.below(d.bytes_per_row / 4 + 1))
                                       : d.bytes_per_row + 4 * static_cast<u32>(prng.below(8));
      d.to_spm = prng.chance(0.5);
      const u32 gmem_span = (d.rows - 1) * d.gmem_stride + d.bytes_per_row;
      const u32 spm_span = d.bytes_per_row * d.rows;
      if (gmem_span > gmem_window || spm_span > spm_window) {
        return;
      }
      const u32 gmem_addr =
          cfg.gmem_base + 4 * static_cast<u32>(prng.below((gmem_window - gmem_span) / 4 + 1));
      const u32 spm_addr = kSpmBase + 4 * static_cast<u32>(prng.below((spm_window - spm_span) / 4 + 1));
      d.src = d.to_spm ? gmem_addr : spm_addr;
      d.dst = d.to_spm ? spm_addr : gmem_addr;
      d.waker = prng.chance(0.5) ? group : kDmaNoWaker;
      by_runs.dma.push(group, d, now);
      by_cycles.dma.push(group, d, now);
    };

    sim::Cycle now = 0;
    const sim::Cycle busy_until = 2000 + 4 * cfg.gmem_latency;
    while (now < busy_until || !by_cycles.dma.idle()) {
      ASSERT_LT(now, 1'000'000U) << "the engines never drained";
      // A bulk-only span needs an empty scalar FIFO and no scalar
      // completion inside it, as a fast-forward jump does.
      const sim::Cycle scalar_next = by_cycles.gmem.next_completion_cycle(now);
      if (scalar_next > now + 2 && prng.chance(0.3)) {
        const sim::Cycle limit = std::min<sim::Cycle>(scalar_next - 1, now + 1 + prng.below(800));
        const sim::Cycle last = now + 1 + prng.below(limit - now);
        by_runs.stream(now + 1, last);
        for (sim::Cycle c = now + 1; c <= last; ++c) {
          by_cycles.step(c);
        }
        ++spans;
        now = last;
        expect_same_state(by_runs, by_cycles, cfg, now, "after a span");
        if (::testing::Test::HasFailure()) {
          return;
        }
        continue;
      }
      ++now;
      by_runs.step(now);
      by_cycles.step(now);
      // Scalar traffic competes for the channel (and the bulk reserve).
      if (now < busy_until && prng.chance(0.1)) {
        MemRequest req;
        req.addr = cfg.gmem_base + 4 * static_cast<u32>(prng.below(gmem_window / 4));
        req.op = prng.chance(0.5) ? isa::Op::kLw : isa::Op::kSw;
        req.wdata = prng.next_u32();
        by_runs.gmem.enqueue(req, now);
        by_cycles.gmem.enqueue(req, now);
      }
      if (now < busy_until && prng.chance(0.2)) {
        push_random(now);
      }
    }
    expect_same_state(by_runs, by_cycles, cfg, now, "drained");
    streamed_cycles += by_runs.streamed_cycles;
    EXPECT_EQ(by_runs.spm.words_, by_cycles.spm.words_);
    std::vector<u32> gmem_runs(gmem_window / 4);
    std::vector<u32> gmem_cycles(gmem_window / 4);
    by_runs.gmem.read_words(cfg.gmem_base, gmem_runs);
    by_cycles.gmem.read_words(cfg.gmem_base, gmem_cycles);
    EXPECT_EQ(gmem_runs, gmem_cycles);
    if (traced) {
      by_runs.gmem.close_trace_spans(now);
      by_cycles.gmem.close_trace_spans(now);
      EXPECT_EQ(by_runs.trace->dropped(), 0U);
      EXPECT_EQ(obs::to_chrome_json(*by_runs.trace), obs::to_chrome_json(*by_cycles.trace));
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // The trials compare many spans, and runs longer than a cycle streamed
  // a large share of their cycles.
  EXPECT_GT(spans, 5000U);
  EXPECT_GT(streamed_cycles, 200'000U);
}

}  // namespace
}  // namespace mp3d::arch
