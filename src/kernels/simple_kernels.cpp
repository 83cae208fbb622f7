// SPDX-License-Identifier: Apache-2.0
#include "kernels/simple_kernels.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/prng.hpp"
#include "common/strings.hpp"
#include "isa/assembler.hpp"
#include "kernels/runtime.hpp"

namespace mp3d::kernels {
namespace {

isa::Program assemble_kernel(const arch::ClusterConfig& cfg, const std::string& body,
                             bool with_dma = false) {
  std::string s = runtime_prelude(cfg);
  s += ".text " + strfmt("0x%x", cfg.gmem_base) + "\n";
  s += runtime_crt0(cfg);
  s += body;
  s += runtime_barrier(cfg);
  if (with_dma) {
    s += runtime_dma(cfg);
  }
  isa::AsmOptions opt;
  opt.default_base = cfg.gmem_base;
  return isa::assemble(s, opt);
}

std::vector<u32> random_words(Prng& rng, u32 n, i32 lo, i32 hi) {
  std::vector<u32> words(n);
  for (u32& w : words) {
    w = random_word(rng, lo, hi);
  }
  return words;
}

/// The memcpy kernels' verify hook: dst holds the seed's words and src
/// still does. Reads both a chunk at a time.
std::function<std::string(arch::Cluster&, const arch::RunResult&)> make_memcpy_verify(
    u32 src, u32 dst, u32 n, u64 seed) {
  return [src, dst, n, seed](arch::Cluster& cluster, const arch::RunResult&) -> std::string {
    constexpr u32 kChunk = 1024;
    Prng rng(seed);
    std::vector<u32> dst_chunk(std::min(n, kChunk));
    std::vector<u32> src_chunk(dst_chunk.size());
    for (u32 first = 0; first < n; first += kChunk) {
      const u32 count = std::min(n - first, kChunk);
      cluster.read_words(dst + first * 4, std::span<u32>(dst_chunk).first(count));
      cluster.read_words(src + first * 4, std::span<u32>(src_chunk).first(count));
      for (u32 j = 0; j < count; ++j) {
        const u32 i = first + j;
        const u32 want = random_word(rng, INT16_MIN, INT16_MAX);
        if (dst_chunk[j] != want) {
          return strfmt("dst[%u] = 0x%x, expected 0x%x", i, dst_chunk[j], want);
        }
        if (src_chunk[j] != want) {
          return strfmt("src[%u] was clobbered", i);
        }
      }
    }
    return "";
  };
}

}  // namespace

Kernel build_axpy(const arch::ClusterConfig& cfg, u32 n, i32 a, u64 seed) {
  MP3D_CHECK(n % (4 * cfg.num_cores()) == 0, "axpy n must be a multiple of 4*cores");
  SpmAllocator spm(cfg);
  const u32 x_base = spm.alloc(static_cast<u64>(n) * 4);
  const u32 y_base = spm.alloc(static_cast<u64>(n) * 4);
  const u32 per_core = n / cfg.num_cores();

  std::string body = strfmt(".equ XB, 0x%x\n.equ YB, 0x%x\n", x_base, y_base);
  body += strfmt(".equ PER_CORE, %u\n.equ AVAL, %d\n", per_core, a);
  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
    li t0, PER_CORE
    mul t1, s0, t0          # element offset
    slli t1, t1, 2
    li t2, XB
    add t2, t2, t1          # x ptr
    li t3, YB
    add t3, t3, t1          # y ptr
    li t4, AVAL
    li t5, PER_CORE
ax_loop:
    p.lw a1, 4(t2!)
    p.lw a2, 4(t2!)
    p.lw a3, 4(t2!)
    p.lw a4, 4(t2!)
    lw a5, 0(t3)
    lw a6, 4(t3)
    lw a7, 8(t3)
    lw t6, 12(t3)
    p.mac a5, a1, t4
    p.mac a6, a2, t4
    p.mac a7, a3, t4
    p.mac t6, a4, t4
    sw a5, 0(t3)
    sw a6, 4(t3)
    sw a7, 8(t3)
    sw t6, 12(t3)
    addi t3, t3, 16
    addi t5, t5, -4
    bnez t5, ax_loop
    call _barrier
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("axpy_n%u", n);
  kernel.program = assemble_kernel(cfg, body);
  kernel.init = [x_base, y_base, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, x_base, rng, n, -100, 100);
    write_random_words(cluster, y_base, rng, n, -100, 100);
  };
  kernel.verify = [x_base, y_base, n, a, seed](arch::Cluster& cluster,
                                               const arch::RunResult&) -> std::string {
    Prng xs(seed);
    Prng ys = skipped(xs, n, -100, 100);
    for (u32 i = 0; i < n; ++i) {
      const u32 x = random_word(xs, -100, 100);
      const u32 expect = random_word(ys, -100, 100) + static_cast<u32>(a) * x;
      const u32 got = cluster.read_word(y_base + i * 4);
      if (got != expect) {
        return strfmt("y[%u] = 0x%x, expected 0x%x", i, got, expect);
      }
      if (cluster.read_word(x_base + i * 4) != x) {
        return strfmt("x[%u] was clobbered", i);
      }
    }
    return "";
  };
  return kernel;
}

Kernel build_dotp(const arch::ClusterConfig& cfg, u32 n, u64 seed) {
  MP3D_CHECK(n % cfg.num_cores() == 0, "dotp n must be a multiple of the core count");
  SpmAllocator spm(cfg);
  const u32 x_base = spm.alloc(static_cast<u64>(n) * 4);
  const u32 y_base = spm.alloc(static_cast<u64>(n) * 4);
  const u32 acc_addr = spm.alloc(4);
  const u32 per_core = n / cfg.num_cores();

  std::string body = strfmt(".equ XB, 0x%x\n.equ YB, 0x%x\n.equ ACC, 0x%x\n", x_base,
                            y_base, acc_addr);
  body += strfmt(".equ PER_CORE, %u\n", per_core);
  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
    li t0, PER_CORE
    mul t1, s0, t0
    slli t1, t1, 2
    li t2, XB
    add t2, t2, t1
    li t3, YB
    add t3, t3, t1
    li t5, PER_CORE
    li a1, 0                # partial sum
dp_loop:
    p.lw a2, 4(t2!)
    p.lw a3, 4(t3!)
    p.mac a1, a2, a3
    addi t5, t5, -1
    bnez t5, dp_loop
    li t6, ACC
    amoadd.w zero, a1, (t6)
    call _barrier           # all partials merged
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("dotp_n%u", n);
  kernel.program = assemble_kernel(cfg, body);
  kernel.init = [x_base, y_base, acc_addr, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, x_base, rng, n, -50, 50);
    write_random_words(cluster, y_base, rng, n, -50, 50);
    cluster.write_word(acc_addr, 0);
  };
  kernel.verify = [x_base, y_base, acc_addr, n, seed](
                      arch::Cluster& cluster, const arch::RunResult&) -> std::string {
    Prng xs(seed);
    Prng ys = skipped(xs, n, -50, 50);
    u32 expect = 0;
    for (u32 i = 0; i < n; ++i) {
      expect += random_word(xs, -50, 50) * random_word(ys, -50, 50);
    }
    const u32 got = cluster.read_word(acc_addr);
    if (got != expect) {
      return strfmt("dot = 0x%x, expected 0x%x", got, expect);
    }
    return "";
  };
  return kernel;
}

Kernel build_conv2d(const arch::ClusterConfig& cfg, u32 h, u32 w,
                    const std::array<i32, 9>& k, u64 seed) {
  MP3D_CHECK(w % 4 == 0 && w >= 8, "conv2d width must be a multiple of 4, >= 8");
  MP3D_CHECK(h >= 3, "conv2d height must be at least 3");
  SpmAllocator spm(cfg);
  const u32 img = spm.alloc(static_cast<u64>(h) * w * 4);
  const u32 out = spm.alloc(static_cast<u64>(h) * w * 4);
  const u32 kmem = spm.alloc(9 * 4);

  std::string body = strfmt(".equ IMG, 0x%x\n.equ OUT, 0x%x\n.equ KMEM, 0x%x\n", img,
                            out, kmem);
  body += strfmt(".equ H, %u\n.equ W, %u\n.equ W4, %u\n", h, w, w * 4);
  // Row r of the output is computed by core r % num_cores. Interior columns
  // use the full 3x3 stencil; borders use zero padding (handled by
  // clamping the taps into accumulating only valid neighbors).
  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
    # load the 9 kernel taps into s1..s9
    li t0, KMEM
    lw s1, 0(t0)
    lw s2, 4(t0)
    lw s3, 8(t0)
    lw s4, 12(t0)
    lw s5, 16(t0)
    lw s6, 20(t0)
    lw s7, 24(t0)
    lw s8, 28(t0)
    lw s9, 32(t0)
    mv s10, s0              # row = hartid
cv_row_loop:
    li t0, H
    bge s10, t0, cv_done
    # row pointers: t1 = img + (row-1)*W4, t2 = img + row*W4, t3 = +1 row
    li t4, W4
    mul t5, s10, t4
    li t0, IMG
    add t2, t0, t5
    sub t1, t2, t4
    add t3, t2, t4
    li t6, OUT
    add t6, t6, t5          # out row ptr
    li s11, 0               # col
cv_col_loop:
    li a0, 0                # accumulator
    # --- top row (skip if row == 0) ---
    beqz s10, cv_mid
    beqz s11, cv_top_c
    lw a1, -4(t1)
    p.mac a0, a1, s1
cv_top_c:
    lw a1, 0(t1)
    p.mac a0, a1, s2
    li a2, W - 1
    beq s11, a2, cv_mid
    lw a1, 4(t1)
    p.mac a0, a1, s3
cv_mid:
    # --- middle row ---
    beqz s11, cv_mid_c
    lw a1, -4(t2)
    p.mac a0, a1, s4
cv_mid_c:
    lw a1, 0(t2)
    p.mac a0, a1, s5
    li a2, W - 1
    beq s11, a2, cv_bot
    lw a1, 4(t2)
    p.mac a0, a1, s6
cv_bot:
    # --- bottom row (skip if row == H-1) ---
    li a2, H - 1
    beq s10, a2, cv_store
    beqz s11, cv_bot_c
    lw a1, -4(t3)
    p.mac a0, a1, s7
cv_bot_c:
    lw a1, 0(t3)
    p.mac a0, a1, s8
    li a2, W - 1
    beq s11, a2, cv_store
    lw a1, 4(t3)
    p.mac a0, a1, s9
cv_store:
    sw a0, 0(t6)
    addi t6, t6, 4
    addi t1, t1, 4
    addi t2, t2, 4
    addi t3, t3, 4
    addi s11, s11, 1
    li a2, W
    blt s11, a2, cv_col_loop
    li t0, NUM_CORES
    add s10, s10, t0
    j cv_row_loop
cv_done:
    call _barrier
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("conv2d_%ux%u", h, w);
  kernel.program = assemble_kernel(cfg, body);
  const std::array<i32, 9> taps = k;
  kernel.init = [img, kmem, h, w, taps, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, img, rng, h * w, -20, 20);
    std::vector<u32> kw(9);
    for (int i = 0; i < 9; ++i) {
      kw[static_cast<std::size_t>(i)] = static_cast<u32>(taps[static_cast<std::size_t>(i)]);
    }
    cluster.write_words(kmem, kw);
  };
  kernel.verify = [img, out, h, w, taps, seed](arch::Cluster& cluster,
                                               const arch::RunResult&) -> std::string {
    Prng rng(seed);
    const auto image = random_words(rng, h * w, -20, 20);
    for (u32 r = 0; r < h; ++r) {
      for (u32 c = 0; c < w; ++c) {
        u32 acc = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const i64 rr = static_cast<i64>(r) + dr;
            const i64 cc = static_cast<i64>(c) + dc;
            if (rr < 0 || rr >= h || cc < 0 || cc >= w) {
              continue;
            }
            const u32 tap =
                static_cast<u32>(taps[static_cast<std::size_t>((dr + 1) * 3 + dc + 1)]);
            acc += image[static_cast<std::size_t>(rr) * w + static_cast<std::size_t>(cc)] * tap;
          }
        }
        const u32 got = cluster.read_word(out + (r * w + c) * 4);
        if (got != acc) {
          return strfmt("out[%u][%u] = 0x%x, expected 0x%x", r, c, got, acc);
        }
      }
    }
    return "";
  };
  return kernel;
}

Kernel build_memcpy(const arch::ClusterConfig& cfg, u32 n, u64 seed) {
  MP3D_CHECK(n % (4 * cfg.num_cores()) == 0, "memcpy n must be a multiple of 4*cores");
  SpmAllocator spm(cfg);
  const u32 dst = spm.alloc(static_cast<u64>(n) * 4);
  GmemAllocator gmem(cfg);
  const u32 src = gmem.alloc(static_cast<u64>(n) * 4);
  const u32 per_core = n / cfg.num_cores();

  std::string body = strfmt(".equ SRC, 0x%x\n.equ DST, 0x%x\n.equ PER_CORE, %u\n", src,
                            dst, per_core);
  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
    li t0, PER_CORE
    mul t1, s0, t0
    slli t1, t1, 2
    li t2, SRC
    add t2, t2, t1
    li t3, DST
    add t3, t3, t1
    li t5, PER_CORE
mc_loop:
    lw a1, 0(t2)
    lw a2, 4(t2)
    lw a3, 8(t2)
    lw a4, 12(t2)
    sw a1, 0(t3)
    sw a2, 4(t3)
    sw a3, 8(t3)
    sw a4, 12(t3)
    addi t2, t2, 16
    addi t3, t3, 16
    addi t5, t5, -4
    bnez t5, mc_loop
    call _barrier
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("memcpy_n%u", n);
  kernel.program = assemble_kernel(cfg, body);
  kernel.init = [src, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, src, rng, n, INT16_MIN, INT16_MAX);
  };
  kernel.verify = make_memcpy_verify(src, dst, n, seed);
  return kernel;
}

// ---- staged (gmem-resident) variants ---------------------------------------

namespace {

/// Pick a chunk size (in elements) for the staged stream kernels: the
/// largest divisor of `n` that keeps the per-core share 4-word aligned and
/// whose four SPM buffers fit the budget.
u32 default_chunk(const arch::ClusterConfig& cfg, u32 n, u64 spm_budget) {
  const u32 base = 4 * cfg.num_cores();  // callers pre-check n % base == 0
  const u32 m = n / base;
  for (u32 d = m; d > 1; --d) {
    if (m % d == 0 && 16ULL * base * d <= spm_budget) {
      return base * d;
    }
  }
  return base;
}

/// SPMD head shared by the staged stream kernels (axpy/dotp): leader flag
/// in s8, the group's byte offset into each chunk transfer in s9.
std::string stream_spmd_head() {
  return R"(    call _group_leader
    mv s8, a0
    call _group_id
    li t3, GSLICE
    mul s9, a0, t3           # this group's byte offset within a chunk
)";
}

/// Leader-issued chunk transfer: gmem ptr reg + spm ptr reg (+ optional
/// extra gmem byte offset immediate symbol), group slice applied to both.
std::string leader_dma_xfer(const std::string& gmem_reg, const std::string& spm_reg,
                            const std::string& gmem_extra, bool to_spm) {
  // _dma_copy_in takes a0 = gmem src, a1 = SPM dst; _dma_copy_out the
  // mirror (a0 = SPM src, a1 = gmem dst).
  const std::string gmem_arg = to_spm ? "a0" : "a1";
  const std::string spm_arg = to_spm ? "a1" : "a0";
  std::string s;
  if (gmem_extra.empty()) {
    s += "    add " + gmem_arg + ", " + gmem_reg + ", s9\n";
  } else {
    s += "    li t3, " + gmem_extra + "\n";
    s += "    add " + gmem_arg + ", " + gmem_reg + ", t3\n";
    s += "    add " + gmem_arg + ", " + gmem_arg + ", s9\n";
  }
  s += "    add " + spm_arg + ", " + spm_reg + ", s9\n";
  s += R"(    li a2, GSLICE
    li a3, 1
    li a4, 0
)";
  s += to_spm ? "    call _dma_copy_in\n" : "    call _dma_copy_out\n";
  return s;
}

/// Scalar copy of this core's PC_CHUNK-element share between `from_reg` and
/// `to_reg` bases (byte offset of the share precomputed in t1).
std::string scalar_share_copy(const std::string& tag, const std::string& from_reg,
                              const std::string& to_reg) {
  std::string s;
  s += "    li t0, PC_CHUNK\n";
  s += "    mul t1, s0, t0\n";
  s += "    slli t1, t1, 2\n";
  s += "    add t0, " + from_reg + ", t1\n";
  s += "    add t2, " + to_reg + ", t1\n";
  s += "    li t3, PC_CHUNK\n";
  s += tag + ":\n";
  s += R"(    lw a1, 0(t0)
    lw a2, 4(t0)
    lw a3, 8(t0)
    lw a4, 12(t0)
    sw a1, 0(t2)
    sw a2, 4(t2)
    sw a3, 8(t2)
    sw a4, 12(t2)
    addi t0, t0, 16
    addi t2, t2, 16
    addi t3, t3, -4
)";
  s += "    bnez t3, " + tag + "\n";
  return s;
}

}  // namespace

Kernel build_axpy_staged(const arch::ClusterConfig& cfg, u32 n, i32 a, bool use_dma,
                         u32 chunk, u64 seed, bool markers) {
  const u32 cores = cfg.num_cores();
  MP3D_CHECK(n % (4 * cores) == 0, "staged axpy n must be a multiple of 4*cores");
  SpmAllocator spm(cfg);
  if (chunk == 0) {
    chunk = default_chunk(cfg, n, spm.remaining());
  }
  MP3D_CHECK(chunk % (4 * cores) == 0, "chunk must be a multiple of 4*cores");
  MP3D_CHECK(n % chunk == 0, "chunk must divide n");
  // Both variants allocate the full double-buffer set so their SPM layout
  // (and bank conflict pattern) is identical; the scalar variant only
  // touches pair 0.
  const u32 x0 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 y0 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 x1 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 y1 = spm.alloc(static_cast<u64>(chunk) * 4);
  GmemAllocator gmem(cfg);
  const u32 xb = gmem.alloc(static_cast<u64>(n) * 4);
  const u32 yb = gmem.alloc(static_cast<u64>(n) * 4);

  std::string body = strfmt(".equ XB, 0x%x\n.equ YB, 0x%x\n", xb, yb);
  body += strfmt(".equ X0, 0x%x\n.equ Y0, 0x%x\n.equ X1, 0x%x\n.equ Y1, 0x%x\n", x0, y0,
                 x1, y1);
  body += strfmt(".equ CHUNK4, %u\n.equ NCHUNK, %u\n", chunk * 4, n / chunk);
  body += strfmt(".equ PC_CHUNK, %u\n.equ AVAL, %d\n", chunk / cores, a);
  body += strfmt(".equ GSLICE, %u\n", chunk * 4 / cfg.num_groups);

  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
)";
  body += emit_marker(std::to_string(marker::kKernelStart), markers);
  if (use_dma) {
    body += stream_spmd_head();
  }
  body += R"(    li s2, X0
    li s3, Y0
    li s4, X1
    li s5, Y1
    li s6, XB
    li s7, YB
    li s1, 0                 # chunk index
)";
  if (use_dma) {
    body += "    li s10, 0                # ticket to drain before the barrier\n";
    body += "    li s11, 0                # ticket of the in-flight write-back\n";
    body += "    beqz s8, ax_pro_done\n";
    body += leader_dma_xfer("s6", "s2", "", true);
    body += leader_dma_xfer("s7", "s3", "", true);
    body += "    call _dma_wait\nax_pro_done:\n    call _barrier\n";
  }
  body += "ax_chunk_loop:\n";
  if (use_dma) {
    body += R"(    # leaders: prefetch chunk k+1 into the next pair
    beqz s8, ax_pref_done
    addi t2, s1, 1
    li t0, NCHUNK
    bge t2, t0, ax_pref_done
)";
    if (cfg.dma.engines_per_group > 1) {
      // The prefetch overwrites the y buffer the previous write-back still
      // reads. A single engine serves descriptors in FIFO order, so the
      // anti-dependence holds for free; with several engines the transfers
      // can run concurrently, so the write-back must retire first.
      body += "    mv a0, s11\n    call _dma_wait_id\n";
    }
    body += leader_dma_xfer("s6", "s4", "CHUNK4", true);
    body += leader_dma_xfer("s7", "s5", "CHUNK4", true);
    body += "    call _dma_ticket\n    mv s10, a0\nax_pref_done:\n";
  } else {
    body += "    # all cores: stage this core's share of the chunk\n";
    body += scalar_share_copy("ax_cpx", "s6", "s2");
    body += scalar_share_copy("ax_cpy", "s7", "s3");
    body += "    call _barrier\n";
  }
  body += emit_marker(std::to_string(marker::kComputePhaseStart), markers);
  body += R"(    # compute this core's share: y += a * x (current pair)
    li t0, PC_CHUNK
    mul t1, s0, t0
    slli t1, t1, 2
    add t2, s2, t1
    add t3, s3, t1
    li t4, AVAL
    li t5, PC_CHUNK
ax_loop:
    p.lw a1, 4(t2!)
    p.lw a2, 4(t2!)
    p.lw a3, 4(t2!)
    p.lw a4, 4(t2!)
    lw a5, 0(t3)
    lw a6, 4(t3)
    lw a7, 8(t3)
    lw t6, 12(t3)
    p.mac a5, a1, t4
    p.mac a6, a2, t4
    p.mac a7, a3, t4
    p.mac t6, a4, t4
    sw a5, 0(t3)
    sw a6, 4(t3)
    sw a7, 8(t3)
    sw t6, 12(t3)
    addi t3, t3, 16
    addi t5, t5, -4
    bnez t5, ax_loop
)";
  body += emit_marker(std::to_string(marker::kComputePhaseEnd), markers);
  if (use_dma) {
    // Leaders drain the prefetch (descriptor-granular: the previous
    // chunk's write-back may stay in flight) before the barrier — a
    // prefetch descriptor still naming them as waker would deliver its
    // completion wake into the *barrier's* wfi and release them early.
    body += R"(    beqz s8, ax_fill_done
    mv a0, s10
    call _dma_wait_id
ax_fill_done:
    call _barrier
    # leaders: launch the y write-back; it drains while the next chunk
    # computes and is only waited on before the buffer is reused.
    beqz s8, ax_store_done
)";
    body += leader_dma_xfer("s7", "s3", "", false);
    body += "    call _dma_ticket\n    mv s11, a0\nax_store_done:\n";
    body += R"(    mv t0, s2
    mv s2, s4
    mv s4, t0
    mv t0, s3
    mv s3, s5
    mv s5, t0
)";
  } else {
    body += "    # write this core's y share back\n";
    body += scalar_share_copy("ax_cpo", "s3", "s7");
    body += "    call _barrier\n";
  }
  body += R"(    li t0, CHUNK4
    add s6, s6, t0
    add s7, s7, t0
    addi s1, s1, 1
    li t0, NCHUNK
    blt s1, t0, ax_chunk_loop
)";
  if (use_dma) {
    // Drain the final write-back before core 0 can report EOC.
    body += emit_marker(std::to_string(marker::kStorePhaseStart), markers);
    body += R"(    beqz s8, ax_drain_done
    call _dma_wait
ax_drain_done:
    call _barrier
)";
    body += emit_marker(std::to_string(marker::kStorePhaseEnd), markers);
  }
  body += emit_marker(std::to_string(marker::kKernelEnd), markers);
  body += R"(    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("axpy_%s_n%u_c%u", use_dma ? "dma" : "staged", n, chunk);
  kernel.program = assemble_kernel(cfg, body, use_dma);
  kernel.init = [xb, yb, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, xb, rng, n, -100, 100);
    write_random_words(cluster, yb, rng, n, -100, 100);
  };
  kernel.verify = [xb, yb, n, a, seed](arch::Cluster& cluster,
                                       const arch::RunResult&) -> std::string {
    Prng xs(seed);
    Prng ys = skipped(xs, n, -100, 100);
    for (u32 i = 0; i < n; ++i) {
      const u32 x = random_word(xs, -100, 100);
      const u32 expect = random_word(ys, -100, 100) + static_cast<u32>(a) * x;
      const u32 got = cluster.read_word(yb + i * 4);
      if (got != expect) {
        return strfmt("y[%u] = 0x%x, expected 0x%x", i, got, expect);
      }
      if (cluster.read_word(xb + i * 4) != x) {
        return strfmt("x[%u] was clobbered", i);
      }
    }
    return "";
  };
  return kernel;
}

Kernel build_dotp_staged(const arch::ClusterConfig& cfg, u32 n, bool use_dma, u32 chunk,
                         u64 seed) {
  const u32 cores = cfg.num_cores();
  MP3D_CHECK(n % (4 * cores) == 0, "staged dotp n must be a multiple of 4*cores");
  SpmAllocator spm(cfg);
  const u32 acc_addr = spm.alloc(4);
  if (chunk == 0) {
    chunk = default_chunk(cfg, n, spm.remaining());
  }
  MP3D_CHECK(chunk % (4 * cores) == 0, "chunk must be a multiple of 4*cores");
  MP3D_CHECK(n % chunk == 0, "chunk must divide n");
  const u32 x0 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 y0 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 x1 = spm.alloc(static_cast<u64>(chunk) * 4);
  const u32 y1 = spm.alloc(static_cast<u64>(chunk) * 4);
  GmemAllocator gmem(cfg);
  const u32 xb = gmem.alloc(static_cast<u64>(n) * 4);
  const u32 yb = gmem.alloc(static_cast<u64>(n) * 4);

  std::string body = strfmt(".equ XB, 0x%x\n.equ YB, 0x%x\n.equ ACC, 0x%x\n", xb, yb,
                            acc_addr);
  body += strfmt(".equ X0, 0x%x\n.equ Y0, 0x%x\n.equ X1, 0x%x\n.equ Y1, 0x%x\n", x0, y0,
                 x1, y1);
  body += strfmt(".equ CHUNK4, %u\n.equ NCHUNK, %u\n", chunk * 4, n / chunk);
  body += strfmt(".equ PC_CHUNK, %u\n", chunk / cores);
  body += strfmt(".equ GSLICE, %u\n", chunk * 4 / cfg.num_groups);

  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
)";
  if (use_dma) {
    body += stream_spmd_head();
  }
  body += R"(    li s2, X0
    li s3, Y0
    li s4, X1
    li s5, Y1
    li s6, XB
    li s7, YB
    li s1, 0                 # chunk index
    li s10, 0                # running partial sum
)";
  if (use_dma) {
    body += "    li s11, 0                # ticket of the latest prefetch\n";
    body += "    beqz s8, dp_pro_done\n";
    body += leader_dma_xfer("s6", "s2", "", true);
    body += leader_dma_xfer("s7", "s3", "", true);
    body += "    call _dma_wait\ndp_pro_done:\n    call _barrier\n";
  }
  body += "dp_chunk_loop:\n";
  if (use_dma) {
    body += R"(    beqz s8, dp_pref_done
    addi t2, s1, 1
    li t0, NCHUNK
    bge t2, t0, dp_pref_done
)";
    body += leader_dma_xfer("s6", "s4", "CHUNK4", true);
    body += leader_dma_xfer("s7", "s5", "CHUNK4", true);
    body += "    call _dma_ticket\n    mv s11, a0\ndp_pref_done:\n";
  } else {
    body += scalar_share_copy("dp_cpx", "s6", "s2");
    body += scalar_share_copy("dp_cpy", "s7", "s3");
    body += "    call _barrier\n";
  }
  body += R"(    li t0, PC_CHUNK
    mul t1, s0, t0
    slli t1, t1, 2
    add t2, s2, t1
    add t3, s3, t1
    li t5, PC_CHUNK
dp_loop:
    p.lw a2, 4(t2!)
    p.lw a3, 4(t3!)
    p.mac s10, a2, a3
    addi t5, t5, -1
    bnez t5, dp_loop
)";
  if (use_dma) {
    body += R"(    beqz s8, dp_wait_done
    mv a0, s11
    call _dma_wait_id
dp_wait_done:
    call _barrier
    mv t0, s2
    mv s2, s4
    mv s4, t0
    mv t0, s3
    mv s3, s5
    mv s5, t0
)";
  } else {
    body += "    call _barrier\n";
  }
  body += R"(    li t0, CHUNK4
    add s6, s6, t0
    add s7, s7, t0
    addi s1, s1, 1
    li t0, NCHUNK
    blt s1, t0, dp_chunk_loop
    li t6, ACC
    amoadd.w zero, s10, (t6)
    call _barrier
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("dotp_%s_n%u_c%u", use_dma ? "dma" : "staged", n, chunk);
  kernel.program = assemble_kernel(cfg, body, use_dma);
  kernel.init = [xb, yb, acc_addr, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, xb, rng, n, -50, 50);
    write_random_words(cluster, yb, rng, n, -50, 50);
    cluster.write_word(acc_addr, 0);
  };
  kernel.verify = [xb, yb, acc_addr, n, seed](arch::Cluster& cluster,
                                              const arch::RunResult&) -> std::string {
    Prng xs(seed);
    Prng ys = skipped(xs, n, -50, 50);
    u32 expect = 0;
    for (u32 i = 0; i < n; ++i) {
      expect += random_word(xs, -50, 50) * random_word(ys, -50, 50);
    }
    const u32 got = cluster.read_word(acc_addr);
    if (got != expect) {
      return strfmt("dot = 0x%x, expected 0x%x", got, expect);
    }
    return "";
  };
  return kernel;
}

Kernel build_conv2d_staged(const arch::ClusterConfig& cfg, u32 h, u32 w,
                           const std::array<i32, 9>& k, bool use_dma, u32 band_rows,
                           u64 seed) {
  MP3D_CHECK(w % 4 == 0 && w >= 8, "conv2d width must be a multiple of 4, >= 8");
  MP3D_CHECK(h >= 3, "conv2d height must be at least 3");
  SpmAllocator spm(cfg);
  const u32 kmem = spm.alloc(9 * 4);
  if (band_rows == 0) {
    // Largest band height up to the core count that divides h and whose
    // double-buffered in/out buffers fit the SPM.
    for (u32 r = std::min(h, cfg.num_cores()); r >= 1; --r) {
      const u64 buffers = 2ULL * ((r + 2) + r) * w * 4;
      if (h % r == 0 && buffers <= spm.remaining()) {
        band_rows = r;
        break;
      }
    }
  }
  const u32 r = band_rows;
  MP3D_CHECK(r >= 1 && h % r == 0, "band height must divide the image height");
  const u32 bin_words = (r + 2) * w;  // staged rows incl. one halo row each side
  const u32 bout_words = r * w;
  MP3D_CHECK(bin_words % cfg.num_groups == 0 && bout_words % cfg.num_groups == 0,
             "band does not split into word-aligned group slices");
  // Scalar staging only touches pair 0, but both variants share one layout.
  const u32 i0 = spm.alloc(static_cast<u64>(bin_words) * 4);
  const u32 o0 = spm.alloc(static_cast<u64>(bout_words) * 4);
  const u32 i1 = spm.alloc(static_cast<u64>(bin_words) * 4);
  const u32 o1 = spm.alloc(static_cast<u64>(bout_words) * 4);
  GmemAllocator gmem(cfg);
  const u32 img = gmem.alloc(static_cast<u64>(h) * w * 4);
  const u32 outg = gmem.alloc(static_cast<u64>(h) * w * 4);

  std::string body = strfmt(".equ IMG, 0x%x\n.equ OUTG, 0x%x\n.equ KMEM, 0x%x\n", img,
                            outg, kmem);
  body += strfmt(".equ H, %u\n.equ W, %u\n.equ W4, %u\n", h, w, w * 4);
  body += strfmt(".equ R, %u\n.equ NBAND, %u\n.equ RW4, %u\n", r, h / r, r * w * 4);
  body += strfmt(".equ I0, 0x%x\n.equ O0, 0x%x\n.equ I1, 0x%x\n.equ O1, 0x%x\n", i0, o0,
                 i1, o1);
  body += strfmt(".equ GSLICE_IN, %u\n.equ GSLICE_OUT, %u\n",
                 bin_words * 4 / cfg.num_groups, bout_words * 4 / cfg.num_groups);

  // Stack frame: 0 = band index, 4/8 = current in/out buffer, 12/16 = next
  // in/out buffer, 20/24 = gmem in/out pointer, 28 = leader flag, 32/36 =
  // group in/out slice offsets, 44 = ra.
  //
  // Every band stages R+2 full rows starting one row above the band; at the
  // image edges those halo rows fall on neighbouring gmem allocations but
  // the stencil skips them (global-row checks), so their contents never
  // matter.
  body += R"(
main:
    addi sp, sp, -48
    sw ra, 44(sp)
    csrr s0, mhartid
    li t0, KMEM
    lw s1, 0(t0)
    lw s2, 4(t0)
    lw s3, 8(t0)
    lw s4, 12(t0)
    lw s5, 16(t0)
    lw s6, 20(t0)
    lw s7, 24(t0)
    lw s8, 28(t0)
    lw s9, 32(t0)
    sw zero, 0(sp)
    li t0, I0
    sw t0, 4(sp)
    li t0, O0
    sw t0, 8(sp)
    li t0, I1
    sw t0, 12(sp)
    li t0, O1
    sw t0, 16(sp)
    li t0, IMG
    li t1, W4
    sub t0, t0, t1           # band 0 starts at its (never read) top halo row
    sw t0, 20(sp)
    li t0, OUTG
    sw t0, 24(sp)
)";
  if (use_dma) {
    body += R"(    call _group_leader
    sw a0, 28(sp)
    call _group_id
    li t3, GSLICE_IN
    mul t3, a0, t3
    sw t3, 32(sp)
    li t3, GSLICE_OUT
    mul t3, a0, t3
    sw t3, 36(sp)
    sw zero, 40(sp)          # ticket of the latest prefetch
    # prologue: each group leader stages its slice of band 0
    lw t0, 28(sp)
    beqz t0, cv_pro_done
    lw a0, 20(sp)
    lw t2, 32(sp)
    add a0, a0, t2
    lw a1, 4(sp)
    add a1, a1, t2
    li a2, GSLICE_IN
    li a3, 1
    li a4, 0
    call _dma_copy_in
    call _dma_wait
cv_pro_done:
    call _barrier
)";
  }
  body += "cv_band_loop:\n";
  if (use_dma) {
    body += R"(    # leaders: prefetch band b+1 into the next input buffer
    lw t0, 28(sp)
    beqz t0, cv_pref_done
    lw t2, 0(sp)
    addi t2, t2, 1
    li t3, NBAND
    bge t2, t3, cv_pref_done
    lw a0, 20(sp)
    li t3, RW4
    add a0, a0, t3
    lw t3, 32(sp)
    add a0, a0, t3
    lw a1, 12(sp)
    add a1, a1, t3
    li a2, GSLICE_IN
    li a3, 1
    li a4, 0
    call _dma_copy_in
    call _dma_ticket
    sw a0, 40(sp)
cv_pref_done:
)";
  } else {
    body += R"(    # stage the band: core i copies rows i, i+NUM_CORES, ...
    mv t4, s0
cv_cpi_row:
    li t0, R + 2
    bge t4, t0, cv_cpi_done
    li t5, W4
    mul t0, t4, t5
    lw t1, 20(sp)
    add t1, t1, t0
    lw t2, 4(sp)
    add t2, t2, t0
    li t3, W
cv_cpi_col:
    lw a1, 0(t1)
    lw a2, 4(t1)
    lw a3, 8(t1)
    lw a4, 12(t1)
    sw a1, 0(t2)
    sw a2, 4(t2)
    sw a3, 8(t2)
    sw a4, 12(t2)
    addi t1, t1, 16
    addi t2, t2, 16
    addi t3, t3, -4
    bnez t3, cv_cpi_col
    li t0, NUM_CORES
    add t4, t4, t0
    j cv_cpi_row
cv_cpi_done:
    call _barrier
)";
  }
  body += R"(    # compute the band: core i computes band rows i, i+NUM_CORES, ...
    mv s10, s0
cv_row_loop:
    li t0, R
    bge s10, t0, cv_band_done
    lw t0, 0(sp)
    li t1, R
    mul t0, t0, t1
    add t4, t0, s10          # global output row
    seqz a6, t4              # skip top taps at image row 0
    li t0, H - 1
    xor t5, t4, t0
    seqz a7, t5              # skip bottom taps at image row H-1
    lw t0, 4(sp)
    addi t4, s10, 1
    li t5, W4
    mul t4, t4, t5
    add t2, t0, t4           # center row in the staged band
    sub t1, t2, t5
    add t3, t2, t5
    lw t0, 8(sp)
    mul t4, s10, t5
    add t6, t0, t4           # out row in the staged band
    li s11, 0
cv_col_loop:
    li a0, 0
    bnez a6, cv_mid
    beqz s11, cv_top_c
    lw a1, -4(t1)
    p.mac a0, a1, s1
cv_top_c:
    lw a1, 0(t1)
    p.mac a0, a1, s2
    li a2, W - 1
    beq s11, a2, cv_mid
    lw a1, 4(t1)
    p.mac a0, a1, s3
cv_mid:
    beqz s11, cv_mid_c
    lw a1, -4(t2)
    p.mac a0, a1, s4
cv_mid_c:
    lw a1, 0(t2)
    p.mac a0, a1, s5
    li a2, W - 1
    beq s11, a2, cv_bot
    lw a1, 4(t2)
    p.mac a0, a1, s6
cv_bot:
    bnez a7, cv_store
    beqz s11, cv_bot_c
    lw a1, -4(t3)
    p.mac a0, a1, s7
cv_bot_c:
    lw a1, 0(t3)
    p.mac a0, a1, s8
    li a2, W - 1
    beq s11, a2, cv_store
    lw a1, 4(t3)
    p.mac a0, a1, s9
cv_store:
    sw a0, 0(t6)
    addi t6, t6, 4
    addi t1, t1, 4
    addi t2, t2, 4
    addi t3, t3, 4
    addi s11, s11, 1
    li a2, W
    blt s11, a2, cv_col_loop
    li t0, NUM_CORES
    add s10, s10, t0
    j cv_row_loop
cv_band_done:
)";
  if (use_dma) {
    // As in the staged axpy: finish the prefetch before the barrier so no
    // completion wake can land in the barrier's wfi. The wait is
    // descriptor-granular — the previous band's write-back keeps draining.
    body += R"(    lw t0, 28(sp)
    beqz t0, cv_fill_done
    lw a0, 40(sp)
    call _dma_wait_id
cv_fill_done:
    call _barrier
    # leaders: launch the band write-back; it overlaps the next band's
    # compute (the next [C] wait covers it before the buffer is re-read)
    lw t0, 28(sp)
    beqz t0, cv_out_done
    lw a0, 8(sp)
    lw t2, 36(sp)
    add a0, a0, t2
    lw a1, 24(sp)
    add a1, a1, t2
    li a2, GSLICE_OUT
    li a3, 1
    li a4, 0
    call _dma_copy_out
cv_out_done:
    # swap the buffer pairs
    lw t0, 4(sp)
    lw t1, 12(sp)
    sw t1, 4(sp)
    sw t0, 12(sp)
    lw t0, 8(sp)
    lw t1, 16(sp)
    sw t1, 8(sp)
    sw t0, 16(sp)
)";
  } else {
    body += R"(    # write back: core i stores the band rows it computed
    mv t4, s0
cv_cpo_row:
    li t0, R
    bge t4, t0, cv_cpo_done
    li t5, W4
    mul t0, t4, t5
    lw t1, 8(sp)
    add t1, t1, t0
    lw t2, 24(sp)
    add t2, t2, t0
    li t3, W
cv_cpo_col:
    lw a1, 0(t1)
    lw a2, 4(t1)
    lw a3, 8(t1)
    lw a4, 12(t1)
    sw a1, 0(t2)
    sw a2, 4(t2)
    sw a3, 8(t2)
    sw a4, 12(t2)
    addi t1, t1, 16
    addi t2, t2, 16
    addi t3, t3, -4
    bnez t3, cv_cpo_col
    li t0, NUM_CORES
    add t4, t4, t0
    j cv_cpo_row
cv_cpo_done:
    call _barrier
)";
  }
  body += R"(    # advance the band and its gmem windows
    lw t0, 20(sp)
    li t1, RW4
    add t0, t0, t1
    sw t0, 20(sp)
    lw t0, 24(sp)
    add t0, t0, t1
    sw t0, 24(sp)
    lw t0, 0(sp)
    addi t0, t0, 1
    sw t0, 0(sp)
    li t1, NBAND
    blt t0, t1, cv_band_loop
)";
  if (use_dma) {
    // Drain the final write-back before core 0 can report EOC.
    body += R"(    lw t0, 28(sp)
    beqz t0, cv_drain_done
    call _dma_wait
cv_drain_done:
    call _barrier
)";
  }
  body += R"(    li a0, 0
    lw ra, 44(sp)
    addi sp, sp, 48
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("conv2d_%s_%ux%u_r%u", use_dma ? "dma" : "staged", h, w, r);
  kernel.program = assemble_kernel(cfg, body, use_dma);
  const std::array<i32, 9> taps = k;
  kernel.init = [img, kmem, h, w, taps, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, img, rng, h * w, -20, 20);
    std::vector<u32> kw(9);
    for (int i = 0; i < 9; ++i) {
      kw[static_cast<std::size_t>(i)] = static_cast<u32>(taps[static_cast<std::size_t>(i)]);
    }
    cluster.write_words(kmem, kw);
  };
  kernel.verify = [img, outg, h, w, taps, seed](arch::Cluster& cluster,
                                                const arch::RunResult&) -> std::string {
    Prng rng(seed);
    const auto image = random_words(rng, h * w, -20, 20);
    for (u32 row = 0; row < h; ++row) {
      for (u32 c = 0; c < w; ++c) {
        u32 acc = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const i64 rr = static_cast<i64>(row) + dr;
            const i64 cc = static_cast<i64>(c) + dc;
            if (rr < 0 || rr >= h || cc < 0 || cc >= w) {
              continue;
            }
            const u32 tap =
                static_cast<u32>(taps[static_cast<std::size_t>((dr + 1) * 3 + dc + 1)]);
            acc += image[static_cast<std::size_t>(rr) * w + static_cast<std::size_t>(cc)] *
                   tap;
          }
        }
        const u32 got = cluster.read_word(outg + (row * w + c) * 4);
        if (got != acc) {
          return strfmt("out[%u][%u] = 0x%x, expected 0x%x", row, c, got, acc);
        }
      }
    }
    return "";
  };
  return kernel;
}

Kernel build_memcpy_dma(const arch::ClusterConfig& cfg, u32 n, u32 rounds, u64 seed) {
  MP3D_CHECK(n % (4 * cfg.num_cores()) == 0,
             "memcpy_dma n must be a multiple of 4*cores");
  MP3D_CHECK(rounds >= 1, "need at least one round");
  SpmAllocator spm(cfg);
  const u32 dst = spm.alloc(static_cast<u64>(n) * 4);
  GmemAllocator gmem(cfg);
  const u32 src = gmem.alloc(static_cast<u64>(n) * 4);

  std::string body = strfmt(".equ SRC, 0x%x\n.equ DST, 0x%x\n", src, dst);
  body += strfmt(".equ GSLICE, %u\n.equ ROUNDS, %u\n", n * 4 / cfg.num_groups, rounds);
  // Each group leader streams its slice through its own engines; all the
  // round descriptors are issued back to back (the ctrl frontend holds a
  // start while the group's queues are full) and drained with one
  // wake-based wait, keeping the engines continuously busy.
  body += R"(
main:
    addi sp, sp, -16
    sw ra, 12(sp)
    csrr s0, mhartid
    call _group_leader
    beqz a0, mcd_done
    call _group_id
    li t3, GSLICE
    mul s9, a0, t3
    li s6, SRC
    add s6, s6, s9
    li s7, DST
    add s7, s7, s9
    li s1, ROUNDS
mcd_round:
    mv a0, s6
    mv a1, s7
    li a2, GSLICE
    li a3, 1
    li a4, 0
    call _dma_copy_in
    addi s1, s1, -1
    bnez s1, mcd_round
    call _dma_wait
mcd_done:
    call _barrier
    li a0, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)";

  Kernel kernel;
  kernel.name = strfmt("memcpy_dma_n%u_r%u", n, rounds);
  kernel.program = assemble_kernel(cfg, body, /*with_dma=*/true);
  kernel.init = [src, n, seed](arch::Cluster& cluster) {
    reset_runtime_state(cluster);
    Prng rng(seed);
    write_random_words(cluster, src, rng, n, INT16_MIN, INT16_MAX);
  };
  kernel.verify = make_memcpy_verify(src, dst, n, seed);
  return kernel;
}

}  // namespace mp3d::kernels
