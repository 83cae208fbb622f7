// SPDX-License-Identifier: Apache-2.0
#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "isa/encoding.hpp"

namespace mp3d::isa {
namespace {

Program asm_ok(const std::string& src) {
  AsmOptions opt;
  opt.default_base = 0x80000000;
  return assemble(src, opt);
}

TEST(Assembler, RegisterNames) {
  EXPECT_EQ(parse_register("x0"), 0);
  EXPECT_EQ(parse_register("x31"), 31);
  EXPECT_EQ(parse_register("zero"), 0);
  EXPECT_EQ(parse_register("ra"), 1);
  EXPECT_EQ(parse_register("sp"), 2);
  EXPECT_EQ(parse_register("fp"), 8);
  EXPECT_EQ(parse_register("s0"), 8);
  EXPECT_EQ(parse_register("a0"), 10);
  EXPECT_EQ(parse_register("t6"), 31);
  EXPECT_EQ(parse_register("x32"), -1);
  EXPECT_EQ(parse_register("q7"), -1);
}

TEST(Assembler, SimpleArithmetic) {
  const Program p = asm_ok("add a0, a1, a2\n");
  ASSERT_EQ(p.segments().size(), 1U);
  const Instr in = decode(p.segments()[0].words[0]);
  EXPECT_EQ(in.op, Op::kAdd);
  EXPECT_EQ(in.rd, 10);
  EXPECT_EQ(in.rs1, 11);
  EXPECT_EQ(in.rs2, 12);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = asm_ok(R"(
    # full-line comment
    addi a0, zero, 1   // trailing comment
    ; semicolon comment
    addi a0, a0, 1
  )");
  EXPECT_EQ(p.segments()[0].words.size(), 2U);
}

TEST(Assembler, LabelsAndBranches) {
  const Program p = asm_ok(R"(
start:
    addi a0, zero, 10
loop:
    addi a0, a0, -1
    bnez a0, loop
    j start
  )");
  const auto& w = p.segments()[0].words;
  ASSERT_EQ(w.size(), 4U);
  const Instr bnez = decode(w[2]);
  EXPECT_EQ(bnez.op, Op::kBne);
  EXPECT_EQ(bnez.imm, -4);
  const Instr j = decode(w[3]);
  EXPECT_EQ(j.op, Op::kJal);
  EXPECT_EQ(j.rd, 0);
  EXPECT_EQ(j.imm, -12);
  EXPECT_EQ(p.symbol_or_throw("loop"), 0x80000004U);
}

TEST(Assembler, LiSmallAndLarge) {
  const Program p = asm_ok(R"(
    li a0, 100
    li a1, 0x12345678
    li a2, -1
  )");
  const auto& w = p.segments()[0].words;
  ASSERT_EQ(w.size(), 4U);  // 1 + 2 + 1
  EXPECT_EQ(decode(w[0]).op, Op::kAddi);
  EXPECT_EQ(decode(w[1]).op, Op::kLui);
  EXPECT_EQ(decode(w[2]).op, Op::kAddi);
  EXPECT_EQ(decode(w[3]).imm, -1);
}

TEST(Assembler, LiLargeValueSemantics) {
  // Check the lui+addi pair reconstructs the exact constant, including when
  // the low 12 bits are "negative".
  for (const u32 value : {0x12345678U, 0xDEADBEEFU, 0x00000FFFU, 0x7FFFF800U,
                          0xFFFFFFFFU, 0x80000000U}) {
    const Program p = asm_ok("li a0, 0x" + [value] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%X", value);
      return std::string(buf);
    }());
    const auto& w = p.segments()[0].words;
    u32 result = 0;
    for (const u32 word : w) {
      const Instr in = decode(word);
      if (in.op == Op::kLui) {
        result = static_cast<u32>(in.imm);
      } else {
        ASSERT_EQ(in.op, Op::kAddi);
        result = (in.rs1 == 0 ? 0 : result) + static_cast<u32>(in.imm);
      }
    }
    EXPECT_EQ(result, value) << std::hex << value;
  }
}

TEST(Assembler, LoadsStoresWithOffsets) {
  const Program p = asm_ok(R"(
    lw a0, 8(sp)
    sw a0, -4(sp)
    lb t0, 0(a0)
    sh t1, 2(a1)
  )");
  const auto& w = p.segments()[0].words;
  EXPECT_EQ(decode(w[0]).imm, 8);
  EXPECT_EQ(decode(w[1]).imm, -4);
  EXPECT_EQ(decode(w[1]).op, Op::kSw);
  EXPECT_EQ(decode(w[2]).op, Op::kLb);
  EXPECT_EQ(decode(w[3]).op, Op::kSh);
}

TEST(Assembler, XpulpimgPostIncrement) {
  const Program p = asm_ok(R"(
    p.lw a0, 4(a1!)
    p.lw a2, a3(a4!)
    p.sw a5, 8(a6!)
    p.mac s0, s1, s2
  )");
  const auto& w = p.segments()[0].words;
  const Instr l0 = decode(w[0]);
  EXPECT_EQ(l0.op, Op::kPLwPost);
  EXPECT_EQ(l0.imm, 4);
  const Instr l1 = decode(w[1]);
  EXPECT_EQ(l1.op, Op::kPLwRPost);
  EXPECT_EQ(l1.rs2, 13);
  const Instr s0 = decode(w[2]);
  EXPECT_EQ(s0.op, Op::kPSwPost);
  EXPECT_EQ(s0.imm, 8);
  EXPECT_EQ(decode(w[3]).op, Op::kPMac);
}

TEST(Assembler, PostIncrementRequiresBang) {
  EXPECT_THROW(asm_ok("p.lw a0, 4(a1)\n"), AsmError);
  EXPECT_THROW(asm_ok("lw a0, 4(a1!)\n"), AsmError);
}

TEST(Assembler, AmoSyntax) {
  const Program p = asm_ok(R"(
    amoadd.w a0, a1, (a2)
    lr.w t0, (a0)
    sc.w t1, t2, (a0)
  )");
  const auto& w = p.segments()[0].words;
  EXPECT_EQ(decode(w[0]).op, Op::kAmoAddW);
  EXPECT_EQ(decode(w[1]).op, Op::kLrW);
  EXPECT_EQ(decode(w[2]).op, Op::kScW);
}

TEST(Assembler, CsrAccess) {
  const Program p = asm_ok(R"(
    csrr a0, mhartid
    csrr a1, mcycle
    csrr a2, 0xB02
  )");
  const auto& w = p.segments()[0].words;
  EXPECT_EQ(decode(w[0]).csr, kCsrMHartId);
  EXPECT_EQ(decode(w[1]).csr, kCsrMCycle);
  EXPECT_EQ(decode(w[2]).csr, kCsrMInstret);
}

TEST(Assembler, DataDirectives) {
  const Program p = asm_ok(R"(
.text 0x80000000
    nop
.data 0x00010000
value:
    .word 42, 0xdead, value
    .space 8
    .align 16
after:
    .word 1
  )");
  EXPECT_EQ(p.symbol_or_throw("value"), 0x00010000U);
  ASSERT_EQ(p.segments().size(), 2U);
  const auto& data = p.segments()[1];
  EXPECT_EQ(data.words[0], 42U);
  EXPECT_EQ(data.words[1], 0xDEADU);
  EXPECT_EQ(data.words[2], 0x00010000U);
  EXPECT_EQ(p.symbol_or_throw("after") % 16, 0U);
}

TEST(Assembler, EquConstants) {
  const Program p = asm_ok(R"(
.equ MAGIC, 0x123
    li a0, MAGIC + 1
  )");
  const Instr in = decode(p.segments()[0].words[0]);
  EXPECT_EQ(in.imm, 0x124);
}

TEST(Assembler, HiLoRelocations) {
  const Program p = asm_ok(R"(
.equ TARGET, 0x80001ABC
    lui a0, %hi(TARGET)
    addi a0, a0, %lo(TARGET)
  )");
  const auto& w = p.segments()[0].words;
  const Instr lui = decode(w[0]);
  const Instr addi = decode(w[1]);
  EXPECT_EQ(static_cast<u32>(lui.imm) + static_cast<u32>(addi.imm), 0x80001ABCU);
}

TEST(Assembler, PseudoInstructions) {
  const Program p = asm_ok(R"(
    nop
    mv a0, a1
    not a2, a3
    neg a4, a5
    seqz a6, a7
    snez t0, t1
    ret
  )");
  const auto& w = p.segments()[0].words;
  EXPECT_EQ(decode(w[0]).op, Op::kAddi);
  EXPECT_EQ(decode(w[1]).op, Op::kAddi);
  EXPECT_EQ(decode(w[2]).op, Op::kXori);
  EXPECT_EQ(decode(w[3]).op, Op::kSub);
  EXPECT_EQ(decode(w[4]).op, Op::kSltiu);
  EXPECT_EQ(decode(w[5]).op, Op::kSltu);
  const Instr ret = decode(w[6]);
  EXPECT_EQ(ret.op, Op::kJalr);
  EXPECT_EQ(ret.rs1, 1);
}

TEST(Assembler, CallAndFunctionReturn) {
  const Program p = asm_ok(R"(
main:
    call func
    j main
func:
    ret
  )");
  const Instr call = decode(p.segments()[0].words[0]);
  EXPECT_EQ(call.op, Op::kJal);
  EXPECT_EQ(call.rd, 1);
  EXPECT_EQ(call.imm, 8);
}

TEST(Assembler, ErrorsAreCollected) {
  try {
    asm_ok(R"(
      add a0, a1
      bogus a0
      lw a0, 99999(a1)
    )");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_GE(e.errors().size(), 3U);
  }
}

TEST(Assembler, DuplicateLabelRejected) {
  EXPECT_THROW(asm_ok("x:\nnop\nx:\nnop\n"), AsmError);
}

TEST(Assembler, UndefinedSymbolRejected) {
  EXPECT_THROW(asm_ok("j nowhere\n"), AsmError);
}

TEST(Assembler, BranchOutOfRangeRejected) {
  std::string src = "start:\n";
  for (int i = 0; i < 1200; ++i) {
    src += "nop\n";
  }
  src += "beq a0, a1, start\n";  // ~4.8 KB backwards, exceeds +-4 KiB
  EXPECT_THROW(asm_ok(src), AsmError);
}

TEST(Assembler, EntryIsFirstTextAddress) {
  const Program p = asm_ok(".text 0x80000100\nnop\n");
  EXPECT_EQ(p.entry(), 0x80000100U);
}

TEST(Assembler, ExpressionArithmetic) {
  const Program p = asm_ok(R"(
.equ A, 0x100
.equ B, 0x20
    li a0, A + B - 4
    li a1, A - B
  )");
  EXPECT_EQ(decode(p.segments()[0].words[0]).imm, 0x11C);
  EXPECT_EQ(decode(p.segments()[0].words[1]).imm, 0xE0);
}

// ---- memoized assembly ------------------------------------------------------

/// A program with two segments and three symbols, all depending on `tag`.
/// Sources with different tags differ in the tag's digits only.
std::string memo_source(int tag) {
  return ".equ TAG, " + std::to_string(tag) + R"(
start:
    li a0, TAG
    addi a0, a0, 1
    bnez a0, start
.data 0x80001000
table:
    .word TAG, TAG + 1
)";
}

void expect_same_program(const Program& a, const Program& b) {
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].base, b.segments()[i].base);
    EXPECT_EQ(a.segments()[i].words, b.segments()[i].words);
  }
  EXPECT_EQ(a.symbols(), b.symbols());
  EXPECT_EQ(a.entry(), b.entry());
}

/// The program memo_source(tag) must assemble to.
void expect_memo_program(const Program& p, int tag) {
  ASSERT_EQ(p.segments().size(), 2U);
  EXPECT_EQ(decode(p.segments()[0].words[0]).imm, tag);
  EXPECT_EQ(p.segments()[1].base, 0x80001000U);
  EXPECT_EQ(p.segments()[1].words,
            (std::vector<u32>{static_cast<u32>(tag), static_cast<u32>(tag + 1)}));
  EXPECT_EQ(p.symbol_or_throw("TAG"), static_cast<u32>(tag));
  EXPECT_EQ(p.symbol_or_throw("start"), 0x80000000U);
  EXPECT_EQ(p.symbol_or_throw("table"), 0x80001000U);
  EXPECT_EQ(p.entry(), 0x80000000U);
}

TEST(AssemblerMemo, RepeatedSourceReturnsAnEqualCopy) {
  const std::string src = memo_source(1);
  const Program first = asm_ok(src);
  expect_memo_program(first, 1);
  Program again = asm_ok(src);
  expect_same_program(again, first);
  // A hit hands out a copy: changing it leaves the next hit as it was.
  again.define_symbol("extra", 7);
  again.set_entry(0);
  expect_same_program(asm_ok(src), first);
}

TEST(AssemblerMemo, AnyChangeToTheKeyAssemblesAfresh) {
  const std::string src = "start:\n    nop\n    j start\n";
  AsmOptions low;
  low.default_base = 0x80000000;
  AsmOptions high;
  high.default_base = 0x90000000;
  EXPECT_EQ(assemble(src, low).symbol_or_throw("start"), 0x80000000U);
  EXPECT_EQ(assemble(src, high).symbol_or_throw("start"), 0x90000000U);
  EXPECT_EQ(assemble(src, high).entry(), 0x90000000U);
  EXPECT_EQ(assemble(src, low).entry(), 0x80000000U);

  // memo_source(2) differs from memo_source(3) in one byte.
  expect_memo_program(asm_ok(memo_source(2)), 2);
  expect_memo_program(asm_ok(memo_source(3)), 3);
  expect_memo_program(asm_ok(memo_source(2)), 2);
}

TEST(AssemblerMemo, FailingSourceThrowsOnEveryCall) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(asm_ok("bogus a0\n"), AsmError);
  }
  expect_memo_program(asm_ok(memo_source(4)), 4);
  EXPECT_THROW(asm_ok("bogus a0\n"), AsmError);
}

TEST(AssemblerMemo, ConcurrentCallersGetTheSingleThreadedPrograms) {
  // Threads start on sources nobody assembled yet, so they race on misses
  // and on inserting the same key as well as on hits.
  const std::vector<std::string> sources = {memo_source(10), memo_source(11),
                                            memo_source(12)};
  constexpr int kThreads = 8;
  constexpr int kRepeats = 50;
  std::vector<std::vector<Program>> got(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kRepeats * 3; ++i) {
          got[static_cast<std::size_t>(t)].push_back(
              asm_ok(sources[static_cast<std::size_t>((i + t) % 3)]));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  // Push the three out of the memo, then assemble them afresh on one thread.
  for (int tag = 200; tag < 216; ++tag) {
    asm_ok(memo_source(tag));
  }
  for (int k = 0; k < 3; ++k) {
    const Program expected = asm_ok(sources[static_cast<std::size_t>(k)]);
    expect_memo_program(expected, 10 + k);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = (k - t % 3 + 3) % 3; i < kRepeats * 3; i += 3) {
        expect_same_program(got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                            expected);
      }
    }
  }
}

TEST(AssemblerMemo, EvictionsKeepEveryProgramCorrect) {
  // 20 distinct sources through a 16-entry memo, twice around: the second
  // pass assembles each source again after it was evicted.
  std::vector<Program> first;
  for (int tag = 100; tag < 120; ++tag) {
    first.push_back(asm_ok(memo_source(tag)));
    expect_memo_program(first.back(), tag);
  }
  for (int tag = 100; tag < 120; ++tag) {
    expect_same_program(asm_ok(memo_source(tag)), first[static_cast<std::size_t>(tag - 100)]);
  }
}

}  // namespace
}  // namespace mp3d::isa
