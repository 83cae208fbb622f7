// SPDX-License-Identifier: Apache-2.0
// Parallel runtime for MemPool kernels, generated as assembly fragments:
//
//   - `prelude`: .equ constants (control registers, topology, layout);
//   - `crt0`: entry stub — zero per-core TLS, call main, core 0 reports
//     main's return value through the EOC register, everyone else parks;
//   - `barrier`: callable sense-reversing central-counter barrier using
//     amoadd + wfi/wake-all (MemPool's central barrier scheme). Clobbers
//     t0–t6 only; safe to call from any core any number of times (SPMD).
//     Sleepers re-check the global sense word after every wake-up, so a
//     spurious wake token (e.g. a DMA completion deliberately left in
//     flight across the barrier) is absorbed instead of releasing early.
//
// SPM layout managed by the runtime:
//   - per-core TLS word at the bottom of each core's stack slice
//     (sequential region), holding the barrier sense;
//   - the first `kRuntimeReservedBytes` of the interleaved region hold the
//     two barrier counters and the global sense word (different banks);
//   - kernel data is allocated above that via SpmAllocator.
#pragma once

#include <string>

#include "arch/cluster.hpp"
#include "arch/params.hpp"
#include "common/prng.hpp"

namespace mp3d::kernels {

inline constexpr u32 kRuntimeReservedBytes = 256;

/// .equ block: CTRL registers, topology, runtime addresses.
std::string runtime_prelude(const arch::ClusterConfig& cfg);

/// Entry stub; must be placed first in .text. Jumps to `main`.
std::string runtime_crt0(const arch::ClusterConfig& cfg);

/// The callable `_barrier` function.
std::string runtime_barrier(const arch::ClusterConfig& cfg);

/// Callable DMA + SPMD helpers driving the per-group engines via the ctrl
/// registers (clobber t0-t1; `_dma_ticket`/`_dma_wait_id`/`_group_id`/
/// `_group_leader` also use a0):
///   - `_dma_copy_in`:  a0 = gmem src, a1 = SPM dst, a2 = bytes per row,
///                      a3 = rows, a4 = gmem row stride; hands the
///                      descriptor to one of the *calling core's* group
///                      engines (SPMD per-group issue) with the caller as
///                      completion waker, then returns immediately.
///   - `_dma_copy_out`: a0 = SPM src, a1 = gmem dst, same a2-a4.
///   - `_dma_wait`:     sleep (wfi) until the calling core's group has no
///                      outstanding descriptors; completions wake the
///                      sleeping issuer, so no ctrl polling happens while
///                      transfers drain. Only the core that issued the
///                      descriptors may wait (wakes target the waker core).
///   - `_dma_ticket`:   a0 = ticket of the group's most recently started
///                      descriptor (read right after a copy helper to name
///                      that transfer; sole issuer per group assumed).
///   - `_dma_wait_id`:  a0 = ticket; sleep until the group's in-order
///                      retired watermark reaches it, i.e. that descriptor
///                      and everything issued before it completed — later
///                      descriptors may still be in flight, which is what
///                      lets a staged kernel overlap a write-back with the
///                      next chunk's compute. Same waker restriction as
///                      `_dma_wait`.
///   - `_group_id`:     a0 = calling core's group index.
///   - `_group_leader`: a0 = 1 if the caller is its group's first core.
std::string runtime_dma(const arch::ClusterConfig& cfg);

/// Assembly fragment that writes marker id `id_sym` (a .equ symbol or
/// literal) to the MARKER ctrl register from core 0 only (`s0` holds the
/// hartid by kernel convention). The cluster records (id, core, cycle) in
/// RunResult::markers and, with event tracing on, emits a trace instant —
/// staged kernels use this to label their phases on the timeline. Returns
/// "" when `enabled` is false so markers stay free by default. The
/// fragment's skip label is named after `id_sym`, so each id may appear
/// at most once per program (a second one fails to assemble).
std::string emit_marker(const std::string& id_sym, bool enabled);

/// Address of the two barrier counters in the interleaved region.
u32 barrier_counter0_addr(const arch::ClusterConfig& cfg);
u32 barrier_counter1_addr(const arch::ClusterConfig& cfg);
/// Address of the barrier's global sense word (the release flag sleepers
/// re-check after every wake-up, making the barrier immune to spurious
/// wake tokens from in-flight DMA completions).
u32 barrier_sense_addr(const arch::ClusterConfig& cfg);

/// Zero the runtime SPM state (barrier counters). Host-side, part of every
/// kernel's init hook.
void reset_runtime_state(arch::Cluster& cluster);

// ---- host-side input streams -------------------------------------------------
//
// Init hooks write each input word as it is drawn, and verify hooks draw
// the same words again from the seed, so no hook holds a host copy of an
// input and no check trusts the simulated one.

/// One word drawn uniformly from [lo, hi] (two's complement).
u32 random_word(Prng& rng, i32 lo, i32 hi);

/// Write n words drawn from `rng` to consecutive words from `base`, in draw
/// order, with no host-side copy of the input: each 1,024 draws go to
/// simulated memory as one Cluster::write_words run.
void write_random_words(arch::Cluster& cluster, u32 base, Prng& rng, u32 n, i32 lo,
                        i32 hi);

/// A copy of `rng` advanced past n draws: the stream of the input written
/// after an n-word one.
Prng skipped(Prng rng, u32 n, i32 lo, i32 hi);

/// Bump allocator for the interleaved SPM region (above the runtime area)
/// and for global memory. Purely host-side bookkeeping.
class SpmAllocator {
 public:
  explicit SpmAllocator(const arch::ClusterConfig& cfg);

  /// Allocate `bytes` (word aligned), returns byte address.
  u32 alloc(u64 bytes);
  u64 remaining() const { return end_ - next_; }
  u32 next() const { return next_; }

 private:
  u32 next_;
  u32 end_;
};

class GmemAllocator {
 public:
  explicit GmemAllocator(const arch::ClusterConfig& cfg, u64 code_reserve = MiB(1));
  u32 alloc(u64 bytes);
  u64 remaining() const { return end_ - next_; }

 private:
  u64 next_;
  u64 end_;
};

}  // namespace mp3d::kernels
