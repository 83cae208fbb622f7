// SPDX-License-Identifier: Apache-2.0
// Shared test helpers.
#pragma once

#include <string>
#include <string_view>

#include "arch/cluster.hpp"
#include "common/prng.hpp"
#include "isa/assembler.hpp"

namespace mp3d::testing {

/// Assemble `source` (default base = gmem base), load and run it.
inline arch::RunResult run_asm(arch::Cluster& cluster, std::string_view source,
                               u64 max_cycles = 2'000'000) {
  isa::AsmOptions options;
  options.default_base = cluster.config().gmem_base;
  const isa::Program program = isa::assemble(source, options);
  cluster.load_program(program);
  return cluster.run(max_cycles);
}

/// One cycle of a bare interconnect's request direction, in the order a
/// Cluster step takes: begin the cycle, then for every group take in the
/// flits pushed to it and deliver its arrived requests to
/// `sink(dst_tile, handle)`, then end the cycle (a flit pushed after this
/// call at `now` injects at `now + 1` at the earliest, like a core's
/// request).
template <typename Sink>
void step_requests(arch::Interconnect& noc, sim::Cycle now, Sink&& sink) {
  noc.begin_cycle(now);
  for (u32 g = 0; g < noc.num_groups(); ++g) {
    noc.begin_group(g);
    noc.deliver_requests(g, now, [&](u32 dst_tile, u32 handle, const arch::BankRequest&) {
      sink(dst_tile, handle);
    });
  }
  noc.end_cycle(now);
}

/// Common prologue giving named ctrl-register constants to test programs.
inline std::string ctrl_prelude(const arch::ClusterConfig& cfg) {
  std::string s;
  s += ".equ CTRL, " + std::to_string(cfg.ctrl_base) + "\n";
  s += ".equ EOC, " + std::to_string(cfg.ctrl_base + arch::ctrl::kEoc) + "\n";
  s += ".equ WAKE_ONE, " + std::to_string(cfg.ctrl_base + arch::ctrl::kWakeOne) + "\n";
  s += ".equ WAKE_ALL, " + std::to_string(cfg.ctrl_base + arch::ctrl::kWakeAll) + "\n";
  s += ".equ PUTCHAR, " + std::to_string(cfg.ctrl_base + arch::ctrl::kPutChar) + "\n";
  s += ".equ CYCLE, " + std::to_string(cfg.ctrl_base + arch::ctrl::kCycle) + "\n";
  s += ".equ MARKER, " + std::to_string(cfg.ctrl_base + arch::ctrl::kMarker) + "\n";
  s += ".equ NUM_CORES, " + std::to_string(cfg.ctrl_base + arch::ctrl::kNumCores) + "\n";
  s += ".equ DMA_SRC, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaSrc) + "\n";
  s += ".equ DMA_DST, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaDst) + "\n";
  s += ".equ DMA_LEN, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaLen) + "\n";
  s += ".equ DMA_STRIDE, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaStride) + "\n";
  s += ".equ DMA_ROWS, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaRows) + "\n";
  s += ".equ DMA_START, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaStart) + "\n";
  s += ".equ DMA_STATUS, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaStatus) + "\n";
  s += ".equ DMA_WAKE, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaWake) + "\n";
  s += ".equ DMA_TICKET, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaTicket) + "\n";
  s += ".equ DMA_WAITID, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaWaitId) + "\n";
  s += ".equ DMA_RETIRED, " + std::to_string(cfg.ctrl_base + arch::ctrl::kDmaRetired) + "\n";
  return s;
}

/// Random SPMD program: every core runs `iters` rounds of a random-length
/// delay loop followed by a sense-reversing barrier (amoadd + wfi/wake-all),
/// with per-core delays drawn from `prng` so sleep order and wake timing
/// differ every round. Core 0 reports the accumulated sum through EOC.
inline std::string random_barrier_program(const arch::ClusterConfig& cfg, Prng& prng) {
  const int iters = static_cast<int>(prng.below(5)) + 1;
  std::string delays;
  for (u32 c = 0; c < cfg.num_cores(); ++c) {
    delays += std::to_string(20 + prng.below(600));
    delays += c + 1 < cfg.num_cores() ? ", " : "";
  }
  return ctrl_prelude(cfg) + R"(
.equ COUNT0, 0x2000
.equ COUNT1, 0x2080
.equ SUM,    0x2100
.equ ITERS,  )" + std::to_string(iters) + R"(
.text 0x80000000
_start:
    csrr s0, mhartid
    li s1, NUM_CORES
    lw s1, 0(s1)
    li s2, ITERS
    li s3, 0
    la s4, delay_table
    slli t0, s0, 2
    add s4, s4, t0
    lw s4, 0(s4)              # this core's random delay length
main_loop:
    mv t4, s4
spin:
    addi t4, t4, -1
    bnez t4, spin
    li t1, SUM
    li t2, 1
    amoadd.w zero, t2, (t1)
    andi t3, s3, 1
    li t4, COUNT0
    beqz t3, use0
    li t4, COUNT1
use0:
    fence
    li t5, 1
    amoadd.w t6, t5, (t4)
    addi t6, t6, 1
    bne t6, s1, sleep
    sw zero, 0(t4)
    li t5, WAKE_ALL
    sw t5, 0(t5)
    j barrier_done
sleep:
    wfi
barrier_done:
    addi s3, s3, 1
    blt s3, s2, main_loop
    bnez s0, park
    li t1, SUM
    lw a0, 0(t1)
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
.data 0x80010000
delay_table:
    .word )" + delays + "\n";
}

}  // namespace mp3d::testing
