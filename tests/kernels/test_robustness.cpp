// SPDX-License-Identifier: Apache-2.0
// Failure injection and robustness: bad programs must fail loudly and
// diagnosably, never hang the host or corrupt unrelated state.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "kernels/matmul.hpp"
#include "kernels/runtime.hpp"
#include "kernels/simple_kernels.hpp"
#include "testing.hpp"

namespace mp3d::kernels {
namespace {

using mp3d::testing::ctrl_prelude;
using mp3d::testing::run_asm;

/// Run a kernel on tiny() whose program is `body` (t0 = hart id) followed
/// by `park` (sleep forever) through run_kernel, which must throw; returns
/// the error text.
std::string run_kernel_error(const std::string& body) {
  arch::Cluster cluster(arch::ClusterConfig::tiny());
  Kernel k = build_memcpy(cluster.config(), 256);
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
    csrr t0, mhartid
)" + body + R"(
park:
    wfi
    j park
)";
  isa::AsmOptions opt;
  opt.default_base = cluster.config().gmem_base;
  k.program = isa::assemble(src, opt);
  k.verify = nullptr;
  try {
    run_kernel(cluster, k, 200'000);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected run_kernel to throw";
  return "";
}

TEST(Robustness, MisalignedAccessFaultsTheCore) {
  // A half-word, word, AMO or LR/SC access off its natural alignment
  // faults the issuing core, in the SPM and in global memory alike.
  const struct {
    const char* address;
    const char* access;  ///< core 0's access, with t1 = address
  } cases[] = {
      {"0x2002", "lw a0, 0(t1)"},             // SPM word at +2
      {"0x80100003", "lh a0, 0(t1)"},         // gmem half-word at lane 3
      {"0x2001", "amoadd.w a0, zero, (t1)"},  // SPM AMO at +1
  };
  for (const auto& c : cases) {
    const std::string error = run_kernel_error(std::string("    bnez t0, park\n    li t1, ") +
                                               c.address + "\n    " + c.access + "\n");
    EXPECT_NE(error.find("core 0"), std::string::npos) << error;
    EXPECT_NE(error.find(c.address), std::string::npos) << error;
  }
}

TEST(Robustness, AFaultEndsTheRunOnItsCycle) {
  // Core 0 faults on a misaligned load while every other core sleeps: the
  // run ends on the fault's cycle as a fault, not 20,000 cycles later as
  // a deadlock, and run_kernel names the fault and the core.
  arch::Cluster cluster(arch::ClusterConfig::tiny());
  const arch::RunResult r = run_asm(cluster, ctrl_prelude(cluster.config()) + R"(
.text 0x80000000
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x2002
    lw a0, 0(t1)
park:
    wfi
    j park
)");
  EXPECT_TRUE(r.fault);
  EXPECT_FALSE(r.deadlock);
  EXPECT_FALSE(r.eoc);
  EXPECT_LT(r.cycles, 50U);
  EXPECT_NE(r.core_errors[0].find("misaligned lw"), std::string::npos) << r.core_errors[0];
  const std::string error =
      run_kernel_error("    bnez t0, park\n    li t1, 0x2002\n    lw a0, 0(t1)\n");
  EXPECT_NE(error.find("(fault; core 0: misaligned lw"), std::string::npos) << error;
}

TEST(Robustness, SpmOverflowRejectedAtBuildTime) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();  // 16 KiB SPM
  MatmulParams p;
  p.m = 64;
  p.t = 64;  // 3 * 64^2 * 4 = 48 KiB > SPM
  EXPECT_THROW(build_matmul(cfg, p), std::invalid_argument);
}

TEST(Robustness, GmemOverflowRejectedAtBuildTime) {
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  cfg.gmem_size = MiB(2);
  MatmulParams p;
  p.m = 1024;  // 3 * 4 MiB matrices exceed the 2 MiB window
  p.t = 32;
  EXPECT_THROW(build_matmul(cfg, p), std::invalid_argument);
}

TEST(Robustness, RuntimeErrorNamesTheFaultingCore) {
  // A kernel whose core 2 dereferences an unmapped address: run_kernel
  // must throw and identify the core.
  const std::string error = run_kernel_error(R"(
    li t1, 2
    bne t0, t1, park
    li t2, 0x70000000
    lw a0, 0(t2)         # unmapped -> core 2 faults
)");
  EXPECT_NE(error.find("core 2"), std::string::npos) << error;
}

TEST(Robustness, StackSlicesAreDisjointAcrossCores) {
  // Each core fills its stack slice with a signature via sp-relative
  // stores; no core may observe another's signature.
  arch::Cluster cluster(arch::ClusterConfig::mini());
  const std::string src = ctrl_prelude(cluster.config()) + R"(
.equ DONE, 0x4080
.text 0x80000000
_start:
    csrr t0, mhartid
    addi t1, t0, 0x55    # signature
    addi sp, sp, -64
    sw t1, 0(sp)
    sw t1, 60(sp)
    fence
    li t2, DONE
    li t3, 1
    amoadd.w zero, t3, (t2)
spin:
    lw t4, 0(t2)
    li t5, 16
    bne t4, t5, spin
    lw t6, 0(sp)         # re-read own slots
    bne t6, t1, bad
    lw t6, 60(sp)
    bne t6, t1, bad
    addi sp, sp, 64
    bnez t0, park
    li a0, 0
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
bad:
    li a0, 1
    li t0, EOC
    sw a0, 0(t0)
)";
  const arch::RunResult r = run_asm(cluster, src, 1'000'000);
  ASSERT_TRUE(r.eoc);
  EXPECT_EQ(r.exit_code, 0U);
}

TEST(Robustness, KernelsAreReentrantOnOneCluster) {
  // Running two different kernels back-to-back on the same cluster must
  // not leak state (runtime counters are re-initialized by init hooks).
  arch::Cluster cluster(arch::ClusterConfig::tiny());
  EXPECT_NO_THROW(run_kernel(cluster, build_dotp(cluster.config(), 64), 1'000'000));
  EXPECT_NO_THROW(run_kernel(cluster, build_axpy(cluster.config(), 128, 5), 1'000'000));
  EXPECT_NO_THROW(run_kernel(cluster, build_dotp(cluster.config(), 64), 1'000'000));
}

// ---- verify hooks regenerate their expectation from the seed ---------------

constexpr u32 kVerifyN = 1024;
constexpr u32 kVerifyM = 32;  ///< matmul: A, B and C are kVerifyM^2 = kVerifyN words

/// A kernel on `mini()` with the words a corruption after the run must
/// trip its verify hook on.
struct VerifyCase {
  std::string name;
  std::function<Kernel(const arch::ClusterConfig&)> build;
  u32 last_output = 0;  ///< address of the last output word
  /// Address of the last word of an input the hook guards (AXPY: x,
  /// memcpy: src, matmul: A or B), or 0.
  u32 last_input = 0;
  /// Corrupts an input and the output alike, so the output still agrees
  /// with the simulated input (memcpy: one wrong word in src and dst;
  /// matmul: row 0 of A and of C zeroed), or null.
  std::function<void(arch::Cluster&)> corrupt_alike = nullptr;
};

void PrintTo(const VerifyCase& c, std::ostream* os) { *os << c.name; }

MatmulParams verify_matmul() {
  MatmulParams p;
  p.m = kVerifyM;
  p.t = 16;
  return p;
}

std::vector<VerifyCase> verify_cases() {
  // The kernels allocate in this order: the first SPM buffers hold x / dst
  // and y, the staged dot product's accumulator is its first SPM word, and
  // the first gmem buffers hold x / src / A, y / B and C.
  const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  const u32 last = (kVerifyN - 1) * 4;
  SpmAllocator spm(cfg);
  const u32 spm0 = spm.alloc(u64{kVerifyN} * 4);
  const u32 spm1 = spm.alloc(u64{kVerifyN} * 4);
  const u32 dotp_acc = spm.alloc(4);
  const u32 staged_acc = SpmAllocator(cfg).alloc(4);
  GmemAllocator gmem(cfg);
  const u32 gmem0 = gmem.alloc(u64{kVerifyN} * 4);
  const u32 gmem1 = gmem.alloc(u64{kVerifyN} * 4);
  const u32 gmem2 = gmem.alloc(u64{kVerifyN} * 4);
  const auto copy_wrong_word = [](u32 src, u32 dst) {
    return [src, dst](arch::Cluster& cluster) {
      const u32 wrong = cluster.read_word(src) ^ 0x100U;
      cluster.write_word(src, wrong);
      cluster.write_word(dst, wrong);
    };
  };
  const auto zero_rows_of_a_and_c = [gmem0, gmem2](arch::Cluster& cluster) {
    for (u32 k = 0; k < kVerifyM; ++k) {
      cluster.write_word(gmem0 + k * 4, 0);
      cluster.write_word(gmem2 + k * 4, 0);
    }
  };
  using Cfg = const arch::ClusterConfig&;
  return {
      {"axpy", [](Cfg c) { return build_axpy(c, kVerifyN, 3); }, spm1 + last, spm0 + last},
      {"dotp", [](Cfg c) { return build_dotp(c, kVerifyN); }, dotp_acc},
      {"memcpy", [](Cfg c) { return build_memcpy(c, kVerifyN); }, spm0 + last,
       gmem0 + last, copy_wrong_word(gmem0 + last, spm0 + last)},
      {"axpy_staged",
       [](Cfg c) { return build_axpy_staged(c, kVerifyN, 3, /*use_dma=*/true, 256); },
       gmem1 + last, gmem0 + last},
      {"dotp_staged",
       [](Cfg c) { return build_dotp_staged(c, kVerifyN, /*use_dma=*/true, 256); },
       staged_acc},
      {"memcpy_dma", [](Cfg c) { return build_memcpy_dma(c, kVerifyN); }, spm0 + last,
       gmem0 + last, copy_wrong_word(gmem0 + last, spm0 + last)},
      {"matmul", [](Cfg c) { return build_matmul(c, verify_matmul()); }, gmem2 + last,
       gmem1 + last, zero_rows_of_a_and_c},
      {"matmul_dma", [](Cfg c) { return build_matmul_dma(c, verify_matmul()); },
       gmem2 + last, gmem0 + last, zero_rows_of_a_and_c},
  };
}

class VerifyHook : public ::testing::TestWithParam<VerifyCase> {};

TEST_P(VerifyHook, CatchesCorruption) {
  // A clean run verifies; one corrupted output word or one clobbered input
  // word must not. Nor may an input and the output corrupted alike: the
  // hook compares with words regenerated from the seed, not with the
  // simulated input.
  const VerifyCase& c = GetParam();
  arch::Cluster cluster(arch::ClusterConfig::mini());
  const Kernel k = c.build(cluster.config());
  cluster.load_program(k.program);
  k.init(cluster);
  const arch::RunResult r = cluster.run(50'000'000);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(k.verify(cluster, r), "");
  const u32 out = cluster.read_word(c.last_output);
  cluster.write_word(c.last_output, out ^ 0x100U);
  EXPECT_NE(k.verify(cluster, r), "") << "last output word corrupted";
  cluster.write_word(c.last_output, out);
  ASSERT_EQ(k.verify(cluster, r), "");
  if (c.last_input != 0) {
    const u32 in = cluster.read_word(c.last_input);
    cluster.write_word(c.last_input, in ^ 0x100U);
    EXPECT_NE(k.verify(cluster, r), "") << "last input word clobbered";
    cluster.write_word(c.last_input, in);
    ASSERT_EQ(k.verify(cluster, r), "");
  }
  if (c.corrupt_alike) {
    c.corrupt_alike(cluster);
    EXPECT_NE(k.verify(cluster, r), "") << "an input and the output corrupted alike";
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, VerifyHook, ::testing::ValuesIn(verify_cases()),
                         [](const ::testing::TestParamInfo<VerifyCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace mp3d::kernels
