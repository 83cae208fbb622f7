// SPDX-License-Identifier: Apache-2.0
// Two-pass assembler for the RV32IMA+Zicsr+Xpulpimg subset.
//
// Supported syntax (one statement per line, '#', '//' or ';' comments):
//
//   .text [addr]       switch location counter (new segment)
//   .data [addr]
//   .org  addr
//   .word expr[, ...]
//   .space bytes
//   .align bytes       pad with zeros to a power-of-two boundary
//   .equ  name, expr
//   .global name       accepted and ignored
//
//   label:             define label at current location
//   add  rd, rs1, rs2  standard mnemonics, ABI or xN register names
//   lw   rd, off(rs1)
//   p.lw rd, off(rs1!) post-incrementing variants (note the '!')
//   p.lw rd, rs2(rs1!)
//   p.sw rs2, off(rs1!)
//   amoadd.w rd, rs2, (rs1)
//   csrr rd, mhartid   CSR names: mhartid/mcycle/minstret or numeric
//   li / la / mv / j / jr / call / ret / nop / beqz / bnez / ...
//
// Expressions: integers (dec/hex/bin), symbols, + and -, %hi(x), %lo(x).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "isa/program.hpp"

namespace mp3d::isa {

struct AsmOptions {
  u32 default_base = 0x8000'0000;  ///< initial location counter (.text default)

  bool operator==(const AsmOptions&) const = default;
};

class AsmError : public std::runtime_error {
 public:
  explicit AsmError(const std::string& what, std::vector<std::string> errors)
      : std::runtime_error(what), errors_(std::move(errors)) {}
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<std::string> errors_;
};

/// Assemble `source`; throws AsmError listing every diagnosed problem.
///
/// Memoized: one process-wide table, guarded by a mutex, keeps the
/// programs of the 16 most recently used (source text, options) pairs, so
/// a sweep or a job queue that builds the same kernel again pays for one
/// assembly and then a copy. A hit returns a copy of the stored Program. A
/// source that fails is never stored and throws on every call. Safe to
/// call from several threads at once.
Program assemble(std::string_view source, const AsmOptions& options = {});

/// Register-name lookup: "x7", "t2", "s0"/"fp", ... Returns -1 if unknown.
int parse_register(std::string_view name);
/// ABI name of register n (0..31).
const char* register_abi_name(unsigned reg);

}  // namespace mp3d::isa
