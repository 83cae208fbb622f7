// SPDX-License-Identifier: Apache-2.0
// The paper's representative workload (§VI): tiled matrix multiplication
// C = A x B of two M x M int32 matrices resident in global memory, blocked
// into t x t tiles that fill the shared-L1 SPM (3 tiles: A, B, C).
//
// Per output tile (io, jo):
//   zero C-tile;
//   for kk in 0..M/t-1:
//     memory phase  — all cores cooperatively stream A(io,kk) and B(kk,jo)
//                     from global memory into the SPM (bandwidth bound);
//     barrier;
//     compute phase — each core computes 4x4 register-blocked sub-blocks
//                     of the rank-t update using p.mac and post-increment
//                     loads; barrier;
//   store phase    — stream the C-tile back to global memory; barrier.
//
// Each input element is loaded exactly M/t times, so larger SPM tiles mean
// more reuse — the paper's Figure 6 argument.
//
// The generator can also emit *sampled* variants (fewer output tiles,
// fewer k-chunks, capped blocks per core) used to calibrate the analytical
// model without simulating the full kernel.
#pragma once

#include "arch/params.hpp"
#include "kernels/kernel.hpp"

namespace mp3d::kernels {

struct MatmulParams {
  u32 m = 64;  ///< matrix dimension (multiple of t)
  u32 t = 16;  ///< SPM tile dimension (multiple of 4)

  // ---- sampling controls (0 = full) ---------------------------------------
  u32 outer_tiles = 0;    ///< output tiles per axis to actually compute
  u32 k_chunks = 0;       ///< k-chunks per output tile
  u32 blocks_per_core = 0;  ///< cap on 4x4 blocks per core

  bool markers = true;    ///< core 0 emits phase markers

  bool is_sampled() const {
    return outer_tiles != 0 || k_chunks != 0 || blocks_per_core != 0;
  }

  /// The paper's tile size for a given cluster SPM capacity: the largest t
  /// (multiple of common block sizes) such that 3*t^2*4B fits. Returns
  /// 256/384/544/800 for 1/2/4/8 MiB.
  static u32 paper_tile_dim(u64 spm_capacity_bytes);

  /// Validate against a cluster configuration (throws on inconsistency).
  void validate(const arch::ClusterConfig& cfg) const;
};

/// Build the kernel (program + init + verify). Verification is skipped for
/// sampled variants that compute partial results.
Kernel build_matmul(const arch::ClusterConfig& cfg, const MatmulParams& params,
                    u64 seed = 1);

/// Double-buffered DMA variant of the same workload: core 0 stages the
/// next A/B chunk into a second pair of SPM tile buffers through the
/// per-group DMA engines while every core computes on the current pair, so
/// the memory phase overlaps compute and the bulk traffic saturates the
/// off-chip channel instead of the cores' issue rate. Needs 5 t x t tiles
/// of SPM (A0/A1/B0/B1/C); sampling controls are not supported.
Kernel build_matmul_dma(const arch::ClusterConfig& cfg, const MatmulParams& params,
                        u64 seed = 1);

/// Phase timing extracted from a run's markers.
struct MatmulPhaseTimes {
  double mem_cycles_per_chunk = 0.0;      ///< avg memory phase (incl. barrier)
  double compute_cycles_per_chunk = 0.0;  ///< avg compute phase (incl. barrier)
  double store_cycles_per_tile = 0.0;
  u64 chunks_observed = 0;
  u64 total_cycles = 0;
};

MatmulPhaseTimes extract_phase_times(const arch::RunResult& result);

}  // namespace mp3d::kernels
