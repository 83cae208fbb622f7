// SPDX-License-Identifier: Apache-2.0
#include "kernels/runtime.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "kernels/kernel.hpp"

namespace mp3d::kernels {

u32 barrier_counter0_addr(const arch::ClusterConfig& cfg) {
  return static_cast<u32>(cfg.spm_base + cfg.seq_region_bytes());
}

u32 barrier_counter1_addr(const arch::ClusterConfig& cfg) {
  // One bank row further along the interleave: a different bank, so the
  // two counters never conflict with each other.
  return barrier_counter0_addr(cfg) + cfg.banks_per_tile * 4;
}

u32 barrier_sense_addr(const arch::ClusterConfig& cfg) {
  // Next word along the interleave: a third distinct bank.
  return barrier_counter0_addr(cfg) + 4;
}

std::string runtime_prelude(const arch::ClusterConfig& cfg) {
  std::string s;
  s += "# ---- runtime constants (generated) ----\n";
  s += strfmt(".equ EOC, 0x%x\n", cfg.ctrl_base + arch::ctrl::kEoc);
  s += strfmt(".equ WAKE_ONE, 0x%x\n", cfg.ctrl_base + arch::ctrl::kWakeOne);
  s += strfmt(".equ WAKE_ALL, 0x%x\n", cfg.ctrl_base + arch::ctrl::kWakeAll);
  s += strfmt(".equ PUTCHAR, 0x%x\n", cfg.ctrl_base + arch::ctrl::kPutChar);
  s += strfmt(".equ CYCLE_REG, 0x%x\n", cfg.ctrl_base + arch::ctrl::kCycle);
  s += strfmt(".equ MARKER, 0x%x\n", cfg.ctrl_base + arch::ctrl::kMarker);
  s += strfmt(".equ NUM_CORES, %u\n", cfg.num_cores());
  s += strfmt(".equ CORES_PER_TILE, %u\n", cfg.cores_per_tile);
  s += strfmt(".equ LOG2_CPT, %u\n", log2_exact(cfg.cores_per_tile));
  s += strfmt(".equ NUM_GROUPS, %u\n", cfg.num_groups);
  s += strfmt(".equ CORES_PER_GROUP, %u\n", cfg.cores_per_tile * cfg.tiles_per_group);
  s += strfmt(".equ SPM_BASE, 0x%x\n", cfg.spm_base);
  s += strfmt(".equ SEQ_PER_TILE, %u\n", static_cast<u32>(cfg.seq_bytes_per_tile));
  s += strfmt(".equ LOG2_SEQ_PER_TILE, %u\n", log2_exact(cfg.seq_bytes_per_tile));
  const u32 stack_bytes = static_cast<u32>(cfg.seq_bytes_per_tile / cfg.cores_per_tile);
  MP3D_CHECK(is_pow2(stack_bytes), "per-core stack slice must be a power of two");
  s += strfmt(".equ STACK_BYTES, %u\n", stack_bytes);
  s += strfmt(".equ LOG2_STACK, %u\n", log2_exact(stack_bytes));
  s += strfmt(".equ BAR_COUNT0, 0x%x\n", barrier_counter0_addr(cfg));
  s += strfmt(".equ BAR_COUNT1, 0x%x\n", barrier_counter1_addr(cfg));
  s += strfmt(".equ BAR_SENSE, 0x%x\n", barrier_sense_addr(cfg));
  s += strfmt(".equ DMA_SRC, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaSrc);
  s += strfmt(".equ DMA_DST, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaDst);
  s += strfmt(".equ DMA_LEN, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaLen);
  s += strfmt(".equ DMA_STRIDE, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaStride);
  s += strfmt(".equ DMA_ROWS, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaRows);
  s += strfmt(".equ DMA_START, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaStart);
  s += strfmt(".equ DMA_STATUS, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaStatus);
  s += strfmt(".equ DMA_WAKE, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaWake);
  s += strfmt(".equ DMA_TICKET, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaTicket);
  s += strfmt(".equ DMA_WAITID, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaWaitId);
  s += strfmt(".equ DMA_RETIRED, 0x%x\n", cfg.ctrl_base + arch::ctrl::kDmaRetired);
  return s;
}

std::string runtime_crt0(const arch::ClusterConfig& cfg) {
  (void)cfg;
  return R"(# ---- crt0 (generated) ----
_start:
    # TLS (barrier sense) = bottom word of this core's stack slice.
    csrr t0, mhartid
    srli t1, t0, LOG2_CPT
    slli t1, t1, LOG2_SEQ_PER_TILE
    andi t2, t0, CORES_PER_TILE - 1
    slli t2, t2, LOG2_STACK
    add t1, t1, t2
    li t3, SPM_BASE
    add t1, t1, t3
    sw zero, 0(t1)
    call main
    csrr t0, mhartid
    bnez t0, _park
    li t1, EOC
    sw a0, 0(t1)
_park:
    wfi
    j _park
)";
}

std::string runtime_barrier(const arch::ClusterConfig& cfg) {
  (void)cfg;
  // Sleepers re-check the global sense word after every wake-up: a wfi can
  // be released by a *spurious* token (e.g. the completion wake of a DMA
  // write-back deliberately left in flight across the barrier), and a
  // robust barrier must absorb it rather than release early. The last
  // arrival publishes the flipped sense and fences before waking anyone,
  // so a woken core can never read the stale sense and sleep forever.
  return R"(# ---- central wake-up barrier (generated); clobbers t0-t6 ----
_barrier:
    fence                         # my stores must be visible past the barrier
    csrr t0, mhartid
    srli t1, t0, LOG2_CPT
    slli t1, t1, LOG2_SEQ_PER_TILE
    andi t2, t0, CORES_PER_TILE - 1
    slli t2, t2, LOG2_STACK
    add t1, t1, t2
    li t3, SPM_BASE
    add t1, t1, t3                # t1 = TLS
    lw t4, 0(t1)                  # sense
    xori t5, t4, 1
    sw t5, 0(t1)
    li t2, BAR_COUNT0
    beqz t4, _bar_cnt_sel
    li t2, BAR_COUNT1
_bar_cnt_sel:
    li t3, 1
    amoadd.w t5, t3, (t2)
    addi t5, t5, 1
    li t6, NUM_CORES
    bne t5, t6, _bar_sleep
    sw zero, 0(t2)                # last arrival: reset this sense's counter
    lw t3, 0(t1)                  # the just-flipped sense
    li t4, BAR_SENSE
    sw t3, 0(t4)                  # publish the release
    fence                         # ... and make it visible before any wake
    li t3, WAKE_ALL
    sw t3, 0(t3)                  # wake everyone else
    ret
_bar_sleep:
    lw t4, 0(t1)                  # my flipped sense = the release value
    li t2, BAR_SENSE
_bar_sleep_loop:
    wfi
    lw t3, 0(t2)
    bne t3, t4, _bar_sleep_loop   # spurious token: not released yet
    ret
)";
}

std::string runtime_dma(const arch::ClusterConfig& cfg) {
  (void)cfg;
  // The staging registers are per-core, so concurrent callers on different
  // cores never race; the start write blocks (in the ctrl frontend) while
  // the group's descriptor queues are full. Descriptors always go to the
  // *calling core's* group engines, so each group's designated issuer
  // drives its own engines (SPMD per-group issue). Every helper-issued
  // descriptor names the caller as waker: `_dma_wait` reads the status
  // once, and if descriptors are outstanding sleeps in wfi until a
  // completion wakes it — zero ctrl traffic between sleep and wake,
  // instead of the former kDmaStatus polling loop. Only the issuing core
  // may `_dma_wait` (completions wake the waker core alone).
  return R"(# ---- DMA + SPMD group helpers (generated); clobber t0-t1 ----
_dma_copy_in:
_dma_copy_out:
    li t0, DMA_SRC
    sw a0, 0(t0)
    li t0, DMA_DST
    sw a1, 0(t0)
    li t0, DMA_LEN
    sw a2, 0(t0)
    li t0, DMA_ROWS
    sw a3, 0(t0)
    li t0, DMA_STRIDE
    sw a4, 0(t0)
    li t0, DMA_WAKE
    csrr t1, mhartid
    sw t1, 0(t0)
    li t0, DMA_START
    sw zero, 0(t0)
    ret
_dma_wait:
    li t0, DMA_STATUS
_dma_wait_loop:
    lw t1, 0(t0)              # nonzero read arms the completion wake
    beqz t1, _dma_wait_done
    wfi                       # sleep; a completing descriptor wakes us
    j _dma_wait_loop
_dma_wait_done:
    ret
_dma_ticket:
    li t0, DMA_TICKET
    lw a0, 0(t0)
    ret
_dma_wait_id:
    li t0, DMA_WAITID
    sw a0, 0(t0)
    li t0, DMA_RETIRED
_dma_wid_loop:
    lw t1, 0(t0)              # arms the completion wake iff watermark < a0
    bgeu t1, a0, _dma_wid_done
    wfi                       # sleep; any retiring group descriptor wakes us
    j _dma_wid_loop
_dma_wid_done:
    ret
_group_id:
    csrr t0, mhartid
    li a0, CORES_PER_GROUP
    divu a0, t0, a0
    ret
_group_leader:
    csrr t0, mhartid
    li a0, CORES_PER_GROUP
    remu a0, t0, a0
    seqz a0, a0
    ret
)";
}

std::string emit_marker(const std::string& id_sym, bool enabled) {
  if (!enabled) {
    return "";
  }
  // The skip label is named after the id, not a running count, so a
  // kernel's source (isa::assemble's memo key) depends only on the
  // kernel's parameters.
  const std::string skip = "rt_mrk_" + id_sym;
  return "    bnez s0, " + skip + "\n    li t0, MARKER\n    li t1, " + id_sym +
         "\n    sw t1, 0(t0)\n" + skip + ":\n";
}

void reset_runtime_state(arch::Cluster& cluster) {
  const arch::ClusterConfig& cfg = cluster.config();
  cluster.write_word(barrier_counter0_addr(cfg), 0);
  cluster.write_word(barrier_counter1_addr(cfg), 0);
  cluster.write_word(barrier_sense_addr(cfg), 0);
}

u32 random_word(Prng& rng, i32 lo, i32 hi) {
  return static_cast<u32>(static_cast<i32>(rng.range(lo, hi)));
}

void write_random_words(arch::Cluster& cluster, u32 base, Prng& rng, u32 n, i32 lo,
                        i32 hi) {
  std::array<u32, 1024> run{};
  for (u32 done = 0; done < n;) {
    const u32 len = std::min<u32>(n - done, run.size());
    for (u32 i = 0; i < len; ++i) {
      run[i] = random_word(rng, lo, hi);
    }
    cluster.write_words(base + done * 4, std::span<const u32>(run).first(len));
    done += len;
  }
}

Prng skipped(Prng rng, u32 n, i32 lo, i32 hi) {
  for (u32 i = 0; i < n; ++i) {
    rng.range(lo, hi);
  }
  return rng;
}

SpmAllocator::SpmAllocator(const arch::ClusterConfig& cfg)
    : next_(barrier_counter0_addr(cfg) + kRuntimeReservedBytes),
      end_(static_cast<u32>(cfg.spm_base + cfg.spm_capacity)) {}

u32 SpmAllocator::alloc(u64 bytes) {
  bytes = round_up(bytes, 4);
  MP3D_CHECK(next_ + bytes <= end_,
             "SPM allocator out of space: need " << bytes << " B, have " << remaining());
  const u32 addr = next_;
  next_ += static_cast<u32>(bytes);
  return addr;
}

GmemAllocator::GmemAllocator(const arch::ClusterConfig& cfg, u64 code_reserve)
    : next_(cfg.gmem_base + code_reserve), end_(cfg.gmem_base + cfg.gmem_size) {}

u32 GmemAllocator::alloc(u64 bytes) {
  bytes = round_up(bytes, 4);
  MP3D_CHECK(next_ + bytes <= end_, "global memory allocator out of space");
  const u32 addr = static_cast<u32>(next_);
  next_ += bytes;
  return addr;
}

arch::RunResult run_kernel(arch::Cluster& cluster, const Kernel& kernel, u64 max_cycles,
                           bool warm_icache) {
  cluster.load_program(kernel.program);
  if (kernel.init) {
    kernel.init(cluster);
  }
  if (warm_icache) {
    cluster.warm_icaches();
  }
  arch::RunResult result = cluster.run(max_cycles);
  if (!result.eoc) {
    std::string why = result.deadlock ? "deadlock" : result.fault ? "fault" : "cycle limit";
    for (std::size_t i = 0; i < result.core_errors.size(); ++i) {
      if (!result.core_errors[i].empty()) {
        why += "; core " + std::to_string(i) + ": " + result.core_errors[i];
        break;
      }
    }
    throw std::runtime_error("kernel '" + kernel.name + "' did not complete (" + why +
                             ") after " + std::to_string(result.cycles) + " cycles");
  }
  if (kernel.verify) {
    const std::string err = kernel.verify(cluster, result);
    if (!err.empty()) {
      throw std::runtime_error("kernel '" + kernel.name + "' failed verification: " + err);
    }
  }
  return result;
}

}  // namespace mp3d::kernels
