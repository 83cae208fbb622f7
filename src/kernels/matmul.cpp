// SPDX-License-Identifier: Apache-2.0
#include "kernels/matmul.hpp"

#include <atomic>
#include <vector>

#include "common/assert.hpp"
#include "common/prng.hpp"
#include "common/strings.hpp"
#include "isa/assembler.hpp"
#include "kernels/runtime.hpp"

namespace mp3d::kernels {
namespace {

// Emits the unrolled copy loop shared by the A/B load, C store and C zero
// phases. Expects at entry:
//   t0 = gmem pointer (src for loads, dst for stores), already positioned
//   t1 = spm pointer (linear)
//   t2 = starting column within the tile row
//   t3 = words to move (multiple of 4)
//   t6 = tile row length T
//   a6 = gmem row skip ((M - T) * 4)
// Clobbers a1-a4.
std::string copy_loop(const std::string& tag, bool to_spm, bool zero) {
  std::string s;
  const std::string loop = tag + "_loop";
  const std::string nocross = tag + "_nocross";
  const std::string done = tag + "_done";
  s += "    beqz t3, " + done + "\n";
  s += loop + ":\n";
  if (zero) {
    s += R"(    sw zero, 0(t1)
    sw zero, 4(t1)
    sw zero, 8(t1)
    sw zero, 12(t1)
)";
  } else if (to_spm) {
    s += R"(    lw a1, 0(t0)
    lw a2, 4(t0)
    lw a3, 8(t0)
    lw a4, 12(t0)
    sw a1, 0(t1)
    sw a2, 4(t1)
    sw a3, 8(t1)
    sw a4, 12(t1)
)";
  } else {
    s += R"(    lw a1, 0(t1)
    lw a2, 4(t1)
    lw a3, 8(t1)
    lw a4, 12(t1)
    sw a1, 0(t0)
    sw a2, 4(t0)
    sw a3, 8(t0)
    sw a4, 12(t0)
)";
  }
  s += "    addi t1, t1, 16\n";
  if (!zero) {
    s += "    addi t0, t0, 16\n";
    s += "    addi t2, t2, 4\n";
    s += "    bne t2, t6, " + nocross + "\n";
    s += "    li t2, 0\n";
    s += "    add t0, t0, a6\n";
    s += nocross + ":\n";
  }
  s += "    addi t3, t3, -4\n";
  s += "    bnez t3, " + loop + "\n";
  s += done + ":\n";
  return s;
}

// Set up t0..t3/t6/a6 for a tile copy. `gmem_base_expr` computes the
// gmem byte address of the tile's (0,0) element into a7. The per-core
// linear word range is [s0*W, (s0+1)*W).
std::string copy_setup(const std::string& gmem_base_expr, const std::string& spm_base_sym) {
  std::string s;
  s += gmem_base_expr;  // a7 = gmem tile base
  s += R"(    li t4, WORDS_PER_CORE
    mul t5, s0, t4          # linear start index
    li t6, T
    divu a1, t5, t6         # start row
    remu t2, t5, t6         # start col
    li a2, M4
    mul a3, a1, a2          # row * M * 4
    slli a4, t2, 2
    add a7, a7, a3
    add a7, a7, a4          # + col*4
    mv t0, a7
    li t1, )" + spm_base_sym + R"(
    slli a5, t5, 2
    add t1, t1, a5          # spm dst = base + idx*4
    mv t3, t4               # words to move
    li a6, ROWSKIP
)";
  return s;
}

// Emits the register-blocked compute phase: spill SPMD state, loop over
// this core's 4x4 blocks, restore s0-s3. `a_base` / `b_base` are the
// instructions materializing the A/B tile base address into t3 — a fixed
// symbol for the single-buffered kernel, a stack slot holding the current
// double-buffer half for the DMA kernel.
std::string compute_phase(const std::string& a_base, const std::string& b_base) {
  std::string s;
  s += R"(    # spill SPMD state; the inner loop uses every register
    sw s0, 0(sp)
    sw s1, 4(sp)
    sw s2, 8(sp)
    sw s3, 12(sp)
    mv a0, s0                # blk = hartid
mm_blk_loop:
    li a1, NBLK_EFF
    bge a0, a1, mm_blk_done
    sw a0, 16(sp)
    # block coordinates and pointers
    li a2, TDIV4
    divu a3, a0, a2          # bi
    remu a4, a0, a2          # bj
    li t0, T16
    mul t1, a3, t0           # bi*4 rows -> byte offset bi*16*T
    slli t2, a4, 4           # bj*16
    li t3, CT
    add t4, t3, t1
    add t4, t4, t2           # tc
    sw t4, 20(sp)
)";
  s += "    " + a_base + "\n";
  s += R"(    add t5, t3, t1           # ta = A base + bi*16T
    sw t5, 24(sp)
)";
  s += "    " + b_base + "\n";
  s += R"(    add t5, t3, t2           # tb = B base + bj*16
    sw t5, 28(sp)
    # load the 16 C accumulators (4 rows of 4)
    li t5, T4
    lw s0, 0(t4)
    lw s1, 4(t4)
    lw s2, 8(t4)
    lw s3, 12(t4)
    add t4, t4, t5
    lw s4, 0(t4)
    lw s5, 4(t4)
    lw s6, 8(t4)
    lw s7, 12(t4)
    add t4, t4, t5
    lw s8, 0(t4)
    lw s9, 4(t4)
    lw s10, 8(t4)
    lw s11, 12(t4)
    add t4, t4, t5
    lw a4, 0(t4)
    lw a5, 4(t4)
    lw a6, 8(t4)
    lw a7, 12(t4)
    # inner-loop pointers and strides
    lw t4, 24(sp)            # ta
    lw t5, 28(sp)            # tb
    li t6, T4                # A row stride
    li gp, BACKSTRIDE
    li tp, BSTRIDE
    li ra, KT4
    add ra, ra, t5           # end = tb + K*T*4
mm_inner:
    p.lw a0, 4(t5!)          # b[k][c0..c3]
    p.lw a1, 4(t5!)
    p.lw a2, 4(t5!)
    p.lw a3, tp(t5!)
    p.lw t0, t6(t4!)         # a[r0..r3][k]
    p.lw t1, t6(t4!)
    p.lw t2, t6(t4!)
    p.lw t3, gp(t4!)
    p.mac s0, t0, a0
    p.mac s1, t0, a1
    p.mac s2, t0, a2
    p.mac s3, t0, a3
    p.mac s4, t1, a0
    p.mac s5, t1, a1
    p.mac s6, t1, a2
    p.mac s7, t1, a3
    p.mac s8, t2, a0
    p.mac s9, t2, a1
    p.mac s10, t2, a2
    p.mac s11, t2, a3
    p.mac a4, t3, a0
    p.mac a5, t3, a1
    p.mac a6, t3, a2
    p.mac a7, t3, a3
    bne t5, ra, mm_inner
    # write the 16 accumulators back
    lw t4, 20(sp)            # tc
    li t5, T4
    sw s0, 0(t4)
    sw s1, 4(t4)
    sw s2, 8(t4)
    sw s3, 12(t4)
    add t4, t4, t5
    sw s4, 0(t4)
    sw s5, 4(t4)
    sw s6, 8(t4)
    sw s7, 12(t4)
    add t4, t4, t5
    sw s8, 0(t4)
    sw s9, 4(t4)
    sw s10, 8(t4)
    sw s11, 12(t4)
    add t4, t4, t5
    sw a4, 0(t4)
    sw a5, 4(t4)
    sw a6, 8(t4)
    sw a7, 12(t4)
    lw a0, 16(sp)            # blk
    li a1, NUM_CORES
    add a0, a0, a1
    j mm_blk_loop
mm_blk_done:
    lw s0, 0(sp)
    lw s1, 4(sp)
    lw s2, 8(sp)
    lw s3, 12(sp)
)";
  return s;
}

// Host-side hooks shared by the single-buffered and DMA variants. A and B
// are drawn from one stream, A first, row-major; both hooks walk it the
// same way.
constexpr i32 kMatmulLo = -8;
constexpr i32 kMatmulHi = 8;

std::function<void(arch::Cluster&)> make_matmul_init(u32 a_base, u32 b_base, u32 m,
                                                     u64 seed) {
  return [a_base, b_base, m, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, a_base, rng, m * m, kMatmulLo, kMatmulHi);
    write_random_words(cluster, b_base, rng, m * m, kMatmulLo, kMatmulHi);
  };
}

std::function<std::string(arch::Cluster&, const arch::RunResult&)> make_matmul_verify(
    u32 a_base, u32 b_base, u32 c_base, u32 m, u32 t_dim, u32 tiles_chk, u64 seed) {
  return [a_base, b_base, c_base, m, t_dim, tiles_chk, seed](
             arch::Cluster& cluster, const arch::RunResult&) -> std::string {
    // Regenerate A and B from the seed: B whole (every C column needs all of
    // it), A one row at a time. Each simulated input word is checked too.
    Prng a_stream(seed);
    Prng b_stream = skipped(a_stream, m * m, kMatmulLo, kMatmulHi);
    std::vector<u32> b(static_cast<std::size_t>(m) * m);
    for (u32 i = 0; i < m * m; ++i) {
      b[i] = random_word(b_stream, kMatmulLo, kMatmulHi);
      if (cluster.read_word(b_base + i * 4) != b[i]) {
        return strfmt("B[%u][%u] was clobbered", i / m, i % m);
      }
    }
    const u32 span = tiles_chk * t_dim;  // computed leading sub-square
    std::vector<u32> a_row(m);
    for (u32 r = 0; r < m; ++r) {
      for (u32 k = 0; k < m; ++k) {
        a_row[k] = random_word(a_stream, kMatmulLo, kMatmulHi);
        if (cluster.read_word(a_base + (r * m + k) * 4) != a_row[k]) {
          return strfmt("A[%u][%u] was clobbered", r, k);
        }
      }
      if (r >= span) {
        continue;
      }
      for (u32 c = 0; c < span; ++c) {
        u32 acc = 0;
        for (u32 k = 0; k < m; ++k) {
          acc += a_row[k] * b[static_cast<std::size_t>(k) * m + c];
        }
        const u32 got = cluster.read_word(c_base + (r * m + c) * 4);
        if (got != acc) {
          return strfmt("C[%u][%u] = 0x%x, expected 0x%x", r, c, got, acc);
        }
      }
    }
    return "";
  };
}

}  // namespace

u32 MatmulParams::paper_tile_dim(u64 spm_capacity_bytes) {
  switch (spm_capacity_bytes) {
    case MiB(1): return 256;
    case MiB(2): return 384;
    case MiB(4): return 544;
    case MiB(8): return 800;
    default: {
      // Generic fallback: largest multiple of 32 with 3*t^2*4 <= capacity.
      u32 t = 32;
      while (3ULL * (t + 32) * (t + 32) * 4 <= spm_capacity_bytes) {
        t += 32;
      }
      return t;
    }
  }
}

void MatmulParams::validate(const arch::ClusterConfig& cfg) const {
  MP3D_CHECK(t % 4 == 0 && t >= 8, "tile dim must be a multiple of 4, >= 8");
  MP3D_CHECK(m % t == 0, "matrix dim must be a multiple of the tile dim");
  const u64 tile_bytes = 3ULL * t * t * 4;
  SpmAllocator probe(cfg);
  MP3D_CHECK(tile_bytes <= probe.remaining(),
             "three " << t << "x" << t << " tiles (" << tile_bytes
                      << " B) do not fit the SPM");
  const u64 w = static_cast<u64>(t) * t / cfg.num_cores();
  MP3D_CHECK(static_cast<u64>(t) * t % cfg.num_cores() == 0,
             "t^2 must be divisible by the core count");
  MP3D_CHECK(w % 4 == 0, "per-core copy share must be a multiple of 4 words");
  MP3D_CHECK(3ULL * m * m * 4 + MiB(1) <= cfg.gmem_size,
             "A, B, C (" << 3ULL * m * m * 4 << " B) exceed the global memory window");
}

Kernel build_matmul(const arch::ClusterConfig& cfg, const MatmulParams& p, u64 seed) {
  p.validate(cfg);
  const u32 nt = p.m / p.t;                       // k-chunks per output tile
  const u32 nt_run = p.k_chunks == 0 ? nt : std::min(nt, p.k_chunks);
  const u32 tiles_per_axis = p.outer_tiles == 0 ? nt : std::min(nt, p.outer_tiles);
  const u32 tdiv4 = p.t / 4;
  const u32 nblk_total = tdiv4 * tdiv4;
  u32 nblk_eff = nblk_total;
  if (p.blocks_per_core != 0) {
    nblk_eff = std::min(nblk_total, p.blocks_per_core * cfg.num_cores());
  }

  SpmAllocator spm(cfg);
  const u32 at = spm.alloc(static_cast<u64>(p.t) * p.t * 4);
  const u32 bt = spm.alloc(static_cast<u64>(p.t) * p.t * 4);
  const u32 ct = spm.alloc(static_cast<u64>(p.t) * p.t * 4);
  GmemAllocator gmem(cfg);
  const u64 mat_bytes = static_cast<u64>(p.m) * p.m * 4;
  const u32 a_base = gmem.alloc(mat_bytes);
  const u32 b_base = gmem.alloc(mat_bytes);
  const u32 c_base = gmem.alloc(mat_bytes);

  std::string s = runtime_prelude(cfg);
  s += "# ---- matmul constants ----\n";
  s += strfmt(".equ M, %u\n.equ T, %u\n.equ NT_RUN, %u\n.equ TILES_RUN, %u\n", p.m, p.t,
              nt_run, tiles_per_axis);
  s += strfmt(".equ M4, %u\n.equ T4, %u\n.equ T16, %u\n", p.m * 4, p.t * 4, p.t * 16);
  s += strfmt(".equ TM4, %u\n", p.t * p.m * 4);  // one tile-row step in gmem
  s += strfmt(".equ ROWSKIP, %u\n", (p.m - p.t) * 4);
  s += strfmt(".equ WORDS_PER_CORE, %u\n", p.t * p.t / cfg.num_cores());
  s += strfmt(".equ A_BASE, 0x%x\n.equ B_BASE, 0x%x\n.equ C_BASE, 0x%x\n", a_base,
              b_base, c_base);
  s += strfmt(".equ AT, 0x%x\n.equ BT, 0x%x\n.equ CT, 0x%x\n", at, bt, ct);
  s += strfmt(".equ TDIV4, %u\n.equ NBLK_EFF, %u\n", tdiv4, nblk_eff);
  s += strfmt(".equ KT4, %u\n", p.t * p.t * 4);  // inner loop end offset
  s += strfmt(".equ BSTRIDE, %u\n", p.t * 4 - 12);
  s += strfmt(".equ BACKSTRIDE, %d\n", -3 * static_cast<i32>(p.t) * 4 + 4);

  s += ".text " + strfmt("0x%x", cfg.gmem_base) + "\n";
  s += runtime_crt0(cfg);

  // ------------------------------------------------------------------ main
  s += R"(
main:
    addi sp, sp, -64
    sw ra, 60(sp)
    csrr s0, mhartid
)";
  s += emit_marker("1", p.markers);  // kernel start
  s += R"(    li s1, 0                 # io
mm_io_loop:
    li s2, 0                 # jo
mm_jo_loop:
    # ======== zero C tile (linear per-core share) ========
    li t4, WORDS_PER_CORE
    mul t5, s0, t4
    li t1, CT
    slli a5, t5, 2
    add t1, t1, a5
    mv t3, t4
)";
  s += copy_loop("mm_zero", true, /*zero=*/true);
  s += R"(    li s3, 0                 # kk
mm_k_loop:
    # ======== memory phase: load A(io,kk) and B(kk,jo) ========
)";
  s += emit_marker("10", p.markers);
  // A tile base: A_BASE + io*TM4 + kk*T4.
  s += R"(    li a7, TM4
    mul a7, s1, a7
    li a1, T4
    mul a1, s3, a1
    add a7, a7, a1
    li a1, A_BASE
    add a7, a7, a1
)";
  s += copy_setup("", "AT");
  s += copy_loop("mm_cpa", true, false);
  // B tile base: B_BASE + kk*TM4 + jo*T4.
  s += R"(    li a7, TM4
    mul a7, s3, a7
    li a1, T4
    mul a1, s2, a1
    add a7, a7, a1
    li a1, B_BASE
    add a7, a7, a1
)";
  s += copy_setup("", "BT");
  s += copy_loop("mm_cpb", true, false);
  s += "    call _barrier\n";
  s += emit_marker("20", p.markers);

  // ======== compute phase ========
  s += compute_phase("li t3, AT", "li t3, BT");
  s += "    call _barrier\n";
  s += emit_marker("21", p.markers);
  s += R"(    addi s3, s3, 1
    li t0, NT_RUN
    blt s3, t0, mm_k_loop
    # ======== store phase: C tile -> C(io,jo) ========
)";
  s += emit_marker("30", p.markers);
  s += R"(    li a7, TM4
    mul a7, s1, a7
    li a1, T4
    mul a1, s2, a1
    add a7, a7, a1
    li a1, C_BASE
    add a7, a7, a1
)";
  s += copy_setup("", "CT");
  s += copy_loop("mm_cpc", /*to_spm=*/false, false);
  s += "    call _barrier\n";
  s += emit_marker("31", p.markers);
  s += R"(    addi s2, s2, 1
    li t0, TILES_RUN
    blt s2, t0, mm_jo_loop
    addi s1, s1, 1
    blt s1, t0, mm_io_loop
)";
  s += emit_marker("2", p.markers);  // kernel end
  s += R"(    li a0, 0
    lw ra, 60(sp)
    addi sp, sp, 64
    ret
)";
  s += runtime_barrier(cfg);

  isa::AsmOptions opt;
  opt.default_base = cfg.gmem_base;
  Kernel kernel;
  kernel.name = strfmt("matmul_m%u_t%u%s", p.m, p.t, p.is_sampled() ? "_sampled" : "");
  kernel.program = isa::assemble(s, opt);

  kernel.init = make_matmul_init(a_base, b_base, p.m, seed);

  const bool verifiable =
      !p.is_sampled() || (p.k_chunks == 0 && p.blocks_per_core == 0);
  if (verifiable) {
    kernel.verify =
        make_matmul_verify(a_base, b_base, c_base, p.m, p.t, tiles_per_axis, seed);
  }
  return kernel;
}

Kernel build_matmul_dma(const arch::ClusterConfig& cfg, const MatmulParams& p, u64 seed) {
  p.validate(cfg);
  MP3D_CHECK(!p.is_sampled(), "the DMA matmul does not support sampled variants");
  const u32 nt = p.m / p.t;  // k-chunks per output tile (== tiles per axis)
  const u32 tdiv4 = p.t / 4;
  // SPMD per-group issue: every tile transfer is split into row slices, one
  // per group, issued by that group's leader core to its own engines — bulk
  // bandwidth scales with the group count instead of being bottlenecked on
  // group 0's engines.
  const u32 groups = cfg.num_groups;
  MP3D_CHECK(p.t % groups == 0, "tile dim must split evenly across the groups");
  const u32 rpg = p.t / groups;  // tile rows staged per group

  // Five t x t tiles: double-buffered A and B plus the C accumulator tile.
  SpmAllocator spm(cfg);
  const u64 tile_bytes = static_cast<u64>(p.t) * p.t * 4;
  MP3D_CHECK(5 * tile_bytes <= spm.remaining(),
             "five " << p.t << "x" << p.t << " tiles (" << 5 * tile_bytes
                     << " B) do not fit the SPM for double buffering");
  const u32 a0t = spm.alloc(tile_bytes);
  const u32 b0t = spm.alloc(tile_bytes);
  const u32 a1t = spm.alloc(tile_bytes);
  const u32 b1t = spm.alloc(tile_bytes);
  const u32 ct = spm.alloc(tile_bytes);
  GmemAllocator gmem(cfg);
  const u64 mat_bytes = static_cast<u64>(p.m) * p.m * 4;
  const u32 a_base = gmem.alloc(mat_bytes);
  const u32 b_base = gmem.alloc(mat_bytes);
  const u32 c_base = gmem.alloc(mat_bytes);

  std::string s = runtime_prelude(cfg);
  s += "# ---- double-buffered DMA matmul constants ----\n";
  s += strfmt(".equ M, %u\n.equ T, %u\n.equ NT_RUN, %u\n.equ TILES_RUN, %u\n", p.m, p.t,
              nt, nt);
  s += strfmt(".equ M4, %u\n.equ T4, %u\n.equ T16, %u\n", p.m * 4, p.t * 4, p.t * 16);
  s += strfmt(".equ TM4, %u\n", p.t * p.m * 4);
  s += strfmt(".equ WORDS_PER_CORE, %u\n", p.t * p.t / cfg.num_cores());
  s += strfmt(".equ A_BASE, 0x%x\n.equ B_BASE, 0x%x\n.equ C_BASE, 0x%x\n", a_base,
              b_base, c_base);
  s += strfmt(".equ A0T, 0x%x\n.equ B0T, 0x%x\n", a0t, b0t);
  s += strfmt(".equ A1T, 0x%x\n.equ B1T, 0x%x\n.equ CT, 0x%x\n", a1t, b1t, ct);
  s += strfmt(".equ TDIV4, %u\n.equ NBLK_EFF, %u\n", tdiv4, tdiv4 * tdiv4);
  s += strfmt(".equ KT4, %u\n", p.t * p.t * 4);
  s += strfmt(".equ BSTRIDE, %u\n", p.t * 4 - 12);
  s += strfmt(".equ BACKSTRIDE, %d\n", -3 * static_cast<i32>(p.t) * 4 + 4);
  s += strfmt(".equ RPG, %u\n", rpg);
  s += strfmt(".equ RPG_M4, %u\n", rpg * p.m * 4);  // group slice step, gmem side
  s += strfmt(".equ RPG_T4, %u\n", rpg * p.t * 4);  // group slice step, SPM side

  s += ".text " + strfmt("0x%x", cfg.gmem_base) + "\n";
  s += runtime_crt0(cfg);

  // ------------------------------------------------------------------ main
  // Stack frame: 0-16 compute-phase spills, 20-28 block pointers,
  // 32/36 = current A/B buffer, 40/44 = next A/B buffer, 48 = group gmem
  // slice offset, 52 = group-leader flag, 56 = group SPM slice offset,
  // 60 = ra.
  s += R"(
main:
    addi sp, sp, -64
    sw ra, 60(sp)
    csrr s0, mhartid
)";
  s += emit_marker("1", p.markers);  // kernel start
  s += R"(    # SPMD setup: leader flag and this group's tile row-slice offsets
    call _group_leader
    sw a0, 52(sp)
    call _group_id
    li t3, RPG_M4
    mul t3, a0, t3
    sw t3, 48(sp)
    li t3, RPG_T4
    mul t3, a0, t3
    sw t3, 56(sp)
    li s1, 0                 # io
dm_io_loop:
    li s2, 0                 # jo
dm_jo_loop:
    # ======== zero C tile (linear per-core share) ========
    li t4, WORDS_PER_CORE
    mul t5, s0, t4
    li t1, CT
    slli a5, t5, 2
    add t1, t1, a5
    mv t3, t4
)";
  s += copy_loop("dm_zero", true, /*zero=*/true);
  s += R"(    # buffer pointers: current = pair 0, next = pair 1
    li t0, A0T
    sw t0, 32(sp)
    li t0, B0T
    sw t0, 36(sp)
    li t0, A1T
    sw t0, 40(sp)
    li t0, B1T
    sw t0, 44(sp)
    # ======== prologue: each group leader stages its row slice of chunk 0
    # into the current pair, through its own group's engines ========
    lw t0, 52(sp)
    beqz t0, dm_pro_done
    li a0, TM4
    mul a0, s1, a0           # A(io, 0) = A_BASE + io*TM4
    li t2, A_BASE
    add a0, a0, t2
    lw t2, 48(sp)
    add a0, a0, t2           # + group row-slice offset
    lw a1, 32(sp)
    lw t2, 56(sp)
    add a1, a1, t2
    li a2, T4
    li a3, RPG
    li a4, M4
    call _dma_copy_in
    li a0, T4
    mul a0, s2, a0           # B(0, jo) = B_BASE + jo*T4
    li t2, B_BASE
    add a0, a0, t2
    lw t2, 48(sp)
    add a0, a0, t2
    lw a1, 36(sp)
    lw t2, 56(sp)
    add a1, a1, t2
    li a2, T4
    li a3, RPG
    li a4, M4
    call _dma_copy_in
    call _dma_wait
dm_pro_done:
    call _barrier
    li s3, 0                 # kk
dm_k_loop:
)";
  s += emit_marker("10", p.markers);
  s += R"(    # group leaders: prefetch this group's slice of chunk kk+1 into
    # the next pair (overlaps the compute phase)
    lw t0, 52(sp)
    beqz t0, dm_pref_done
    addi t2, s3, 1
    li t3, NT_RUN
    bge t2, t3, dm_pref_done
    li a0, TM4
    mul a0, s1, a0           # A(io, kk+1) = A_BASE + io*TM4 + (kk+1)*T4
    li t3, T4
    mul t3, t2, t3
    add a0, a0, t3
    li t3, A_BASE
    add a0, a0, t3
    lw t3, 48(sp)
    add a0, a0, t3
    lw a1, 40(sp)
    lw t3, 56(sp)
    add a1, a1, t3
    li a2, T4
    li a3, RPG
    li a4, M4
    call _dma_copy_in
    li a0, TM4
    mul a0, t2, a0           # B(kk+1, jo) = B_BASE + (kk+1)*TM4 + jo*T4
    li t3, T4
    mul t3, s2, t3
    add a0, a0, t3
    li t3, B_BASE
    add a0, a0, t3
    lw t3, 48(sp)
    add a0, a0, t3
    lw a1, 44(sp)
    lw t3, 56(sp)
    add a1, a1, t3
    li a2, T4
    li a3, RPG
    li a4, M4
    call _dma_copy_in
dm_pref_done:
)";
  s += emit_marker("20", p.markers);
  s += compute_phase("lw t3, 32(sp)", "lw t3, 36(sp)");
  s += R"(    # group leaders wait for their prefetch; everyone meets at the barrier
    lw t0, 52(sp)
    beqz t0, dm_wait_done
    call _dma_wait
dm_wait_done:
    call _barrier
)";
  s += emit_marker("21", p.markers);
  s += R"(    # swap current and next buffer pairs
    lw t0, 32(sp)
    lw t1, 40(sp)
    sw t1, 32(sp)
    sw t0, 40(sp)
    lw t0, 36(sp)
    lw t1, 44(sp)
    sw t1, 36(sp)
    sw t0, 44(sp)
    addi s3, s3, 1
    li t0, NT_RUN
    blt s3, t0, dm_k_loop
    # ======== store phase: C tile -> C(io,jo) via DMA ========
)";
  s += emit_marker("30", p.markers);
  s += R"(    lw t0, 52(sp)
    beqz t0, dm_store_done
    li a1, TM4
    mul a1, s1, a1           # C(io, jo) = C_BASE + io*TM4 + jo*T4
    li t2, T4
    mul t2, s2, t2
    add a1, a1, t2
    li t2, C_BASE
    add a1, a1, t2
    lw t2, 48(sp)
    add a1, a1, t2           # + group row-slice offset
    li a0, CT
    lw t2, 56(sp)
    add a0, a0, t2
    li a2, T4
    li a3, RPG
    li a4, M4
    call _dma_copy_out
    call _dma_wait
dm_store_done:
    call _barrier
)";
  s += emit_marker("31", p.markers);
  s += R"(    addi s2, s2, 1
    li t0, TILES_RUN
    blt s2, t0, dm_jo_loop
    addi s1, s1, 1
    blt s1, t0, dm_io_loop
)";
  s += emit_marker("2", p.markers);  // kernel end
  s += R"(    li a0, 0
    lw ra, 60(sp)
    addi sp, sp, 64
    ret
)";
  s += runtime_barrier(cfg);
  s += runtime_dma(cfg);

  isa::AsmOptions opt;
  opt.default_base = cfg.gmem_base;
  Kernel kernel;
  kernel.name = strfmt("matmul_dma_m%u_t%u", p.m, p.t);
  kernel.program = isa::assemble(s, opt);
  kernel.init = make_matmul_init(a_base, b_base, p.m, seed);
  kernel.verify = make_matmul_verify(a_base, b_base, c_base, p.m, p.t, nt, seed);
  return kernel;
}

MatmulPhaseTimes extract_phase_times(const arch::RunResult& result) {
  MatmulPhaseTimes out;
  const auto mem_start = result.marker_cycles(marker::kMemPhaseStart);
  const auto compute_start = result.marker_cycles(marker::kComputePhaseStart);
  const auto compute_end = result.marker_cycles(marker::kComputePhaseEnd);
  const auto store_start = result.marker_cycles(marker::kStorePhaseStart);
  const auto store_end = result.marker_cycles(marker::kStorePhaseEnd);
  const std::size_t chunks = std::min(compute_start.size(), compute_end.size());
  double mem_sum = 0.0;
  double compute_sum = 0.0;
  for (std::size_t i = 0; i < chunks; ++i) {
    mem_sum += static_cast<double>(compute_start[i] - mem_start[i]);
    compute_sum += static_cast<double>(compute_end[i] - compute_start[i]);
  }
  out.chunks_observed = chunks;
  if (chunks > 0) {
    out.mem_cycles_per_chunk = mem_sum / static_cast<double>(chunks);
    out.compute_cycles_per_chunk = compute_sum / static_cast<double>(chunks);
  }
  const std::size_t stores = std::min(store_start.size(), store_end.size());
  double store_sum = 0.0;
  for (std::size_t i = 0; i < stores; ++i) {
    store_sum += static_cast<double>(store_end[i] - store_start[i]);
  }
  if (stores > 0) {
    out.store_cycles_per_tile = store_sum / static_cast<double>(stores);
  }
  out.total_cycles = result.cycles;
  return out;
}

}  // namespace mp3d::kernels
