// SPDX-License-Identifier: Apache-2.0
#include "isa/assembler.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <optional>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "isa/encoding.hpp"

namespace mp3d::isa {
namespace {

const char* const kAbiNames[32] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

std::optional<u16> parse_csr_name(std::string_view name) {
  const std::string n = to_lower(name);
  if (n == "mhartid") return kCsrMHartId;
  if (n == "mcycle") return kCsrMCycle;
  if (n == "minstret") return kCsrMInstret;
  long long v = 0;
  if (parse_int(n, v) && v >= 0 && v <= 0xFFF) {
    return static_cast<u16>(v);
  }
  return std::nullopt;
}

// A statement after pass-1 parsing. `words` is the size in 32-bit words.
struct Statement {
  int line = 0;
  std::string mnemonic;             // lower-case; empty for pure data
  std::vector<std::string> operands;
  u32 addr = 0;
  u32 words = 1;
  bool is_data = false;             // .word/.space payload
  std::vector<std::string> data_exprs;
  u32 space_bytes = 0;              // for .space
};

class Assembler {
 public:
  explicit Assembler(const AsmOptions& options) : options_(options) {}

  Program run(std::string_view source) {
    pass1(source);
    if (errors_.empty()) {
      pass2();
    }
    if (!errors_.empty()) {
      throw AsmError("assembly failed with " + std::to_string(errors_.size()) +
                         " error(s); first: " + errors_.front(),
                     errors_);
    }
    program_.set_entry(entry_);
    return std::move(program_);
  }

 private:
  // ---------------------------------------------------------------- pass 1
  void pass1(std::string_view source) {
    u32 lc = options_.default_base;
    entry_ = lc;
    bool entry_fixed = false;
    int line_no = 0;
    for (const std::string& raw : split(source, '\n')) {
      ++line_no;
      std::string line = strip_comment(raw);
      std::string_view body = trim(line);
      // Labels (possibly several on one line).
      while (true) {
        const std::size_t colon = find_label_colon(body);
        if (colon == std::string_view::npos) {
          break;
        }
        const std::string label{trim(body.substr(0, colon))};
        if (!valid_symbol(label)) {
          error(line_no, "invalid label name '" + label + "'");
        } else {
          define_symbol(line_no, label, lc);
        }
        body = trim(body.substr(colon + 1));
      }
      if (body.empty()) {
        continue;
      }
      // Directive or instruction.
      const std::vector<std::string> fields = split_operands(body);
      const std::string mnem = to_lower(fields.front());
      std::vector<std::string> ops(fields.begin() + 1, fields.end());

      if (mnem == ".text" || mnem == ".data" || mnem == ".org") {
        u32 target = lc;
        if (!ops.empty()) {
          long long v = 0;
          if (!eval_const(ops[0], v)) {
            error(line_no, "directive address must be a constant: " + ops[0]);
            continue;
          }
          target = static_cast<u32>(v);
        } else if (mnem == ".org") {
          error(line_no, ".org requires an address");
          continue;
        }
        if (target % 4 != 0) {
          error(line_no, "location counter must stay word aligned");
          continue;
        }
        lc = target;
        if (mnem == ".text" && !entry_fixed) {
          entry_ = lc;
          entry_fixed = true;
        }
        continue;
      }
      if (mnem == ".equ" || mnem == ".set") {
        if (ops.size() != 2) {
          error(line_no, mnem + " requires name, value");
          continue;
        }
        long long v = 0;
        if (!eval_const(ops[1], v)) {
          error(line_no, mnem + " value must be constant (got '" + ops[1] + "')");
          continue;
        }
        define_symbol(line_no, ops[0], static_cast<u32>(v));
        continue;
      }
      if (mnem == ".global" || mnem == ".globl" || mnem == ".section") {
        continue;  // accepted for compatibility; no effect
      }
      if (mnem == ".align") {
        long long v = 4;
        if (!ops.empty() && (!eval_const(ops[0], v) || v <= 0 || !is_pow2(static_cast<u64>(v)))) {
          error(line_no, ".align requires a power-of-two byte count");
          continue;
        }
        const u32 aligned = static_cast<u32>(round_up(lc, static_cast<u64>(v)));
        if (aligned != lc) {
          Statement st;
          st.line = line_no;
          st.addr = lc;
          st.is_data = true;
          st.space_bytes = aligned - lc;
          st.words = (aligned - lc) / 4;
          statements_.push_back(st);
          lc = aligned;
        }
        continue;
      }
      if (mnem == ".word") {
        Statement st;
        st.line = line_no;
        st.addr = lc;
        st.is_data = true;
        st.data_exprs = ops;
        st.words = static_cast<u32>(ops.size());
        statements_.push_back(st);
        lc += st.words * 4;
        continue;
      }
      if (mnem == ".space" || mnem == ".zero") {
        long long v = 0;
        if (ops.size() != 1 || !eval_const(ops[0], v) || v < 0 || v % 4 != 0) {
          error(line_no, ".space requires a non-negative word-aligned byte count");
          continue;
        }
        Statement st;
        st.line = line_no;
        st.addr = lc;
        st.is_data = true;
        st.space_bytes = static_cast<u32>(v);
        st.words = static_cast<u32>(v / 4);
        statements_.push_back(st);
        lc += st.words * 4;
        continue;
      }
      if (starts_with(mnem, ".")) {
        error(line_no, "unknown directive " + mnem);
        continue;
      }

      Statement st;
      st.line = line_no;
      st.mnemonic = mnem;
      st.operands = std::move(ops);
      st.addr = lc;
      st.words = size_of(st);
      statements_.push_back(st);
      lc += st.words * 4;
    }
  }

  // Number of words a (possibly pseudo) instruction expands to.
  u32 size_of(const Statement& st) {
    if (st.mnemonic == "li") {
      if (st.operands.size() == 2) {
        long long v = 0;
        if (eval_const(st.operands[1], v) && fits_i12(v)) {
          return 1;
        }
      }
      return 2;  // lui+addi
    }
    if (st.mnemonic == "la") {
      return 2;
    }
    return 1;
  }

  // ---------------------------------------------------------------- pass 2
  void pass2() {
    Segment current;
    bool open = false;
    auto flush = [&]() {
      if (open && !current.words.empty()) {
        program_.add_segment(current);
      }
      open = false;
      current = {};
    };
    for (const Statement& st : statements_) {
      if (!open || current.end() != st.addr) {
        flush();
        current.base = st.addr;
        open = true;
      }
      std::vector<u32> words = emit(st);
      // Keep addresses consistent even if emission failed (errors recorded).
      words.resize(st.words, 0);
      for (const u32 w : words) {
        current.words.push_back(w);
      }
    }
    flush();
    for (const auto& [name, value] : symbols_) {
      program_.define_symbol(name, value);
    }
  }

  std::vector<u32> emit(const Statement& st) {
    if (st.is_data) {
      std::vector<u32> out;
      if (!st.data_exprs.empty()) {
        for (const std::string& e : st.data_exprs) {
          long long v = 0;
          if (!eval(e, st.addr, v)) {
            error(st.line, "cannot evaluate expression '" + e + "'");
            v = 0;
          }
          out.push_back(static_cast<u32>(v));
        }
      } else {
        out.assign(st.space_bytes / 4, 0);
      }
      return out;
    }
    return emit_instr(st);
  }

  // ------------------------------------------------------------- encoding
  std::vector<u32> emit_instr(const Statement& st);

  // Helpers shared by emit_instr (defined below the class for readability).
  bool reg_operand(const Statement& st, std::size_t idx, u8& out) {
    if (idx >= st.operands.size()) {
      error(st.line, st.mnemonic + ": missing register operand");
      return false;
    }
    const int r = parse_register(st.operands[idx]);
    if (r < 0) {
      error(st.line, st.mnemonic + ": bad register '" + st.operands[idx] + "'");
      return false;
    }
    out = static_cast<u8>(r);
    return true;
  }

  bool imm_operand(const Statement& st, std::size_t idx, i64 lo, i64 hi, i32& out) {
    if (idx >= st.operands.size()) {
      error(st.line, st.mnemonic + ": missing immediate operand");
      return false;
    }
    long long v = 0;
    if (!eval(st.operands[idx], st.addr, v)) {
      error(st.line, st.mnemonic + ": cannot evaluate '" + st.operands[idx] + "'");
      return false;
    }
    if (v < lo || v > hi) {
      error(st.line, st.mnemonic + ": immediate " + std::to_string(v) + " out of range [" +
                         std::to_string(lo) + ", " + std::to_string(hi) + "]");
      return false;
    }
    out = static_cast<i32>(v);
    return true;
  }

  /// Parse "off(reg)" / "off(reg!)" / "(reg)" / "reg2(reg1!)" memory operand.
  struct MemOperand {
    u8 base = 0;
    bool post_increment = false;
    bool reg_offset = false;
    u8 offset_reg = 0;
    i32 offset = 0;
  };

  bool mem_operand(const Statement& st, std::size_t idx, MemOperand& out) {
    if (idx >= st.operands.size()) {
      error(st.line, st.mnemonic + ": missing memory operand");
      return false;
    }
    std::string_view s = trim(st.operands[idx]);
    const std::size_t open = s.rfind('(');
    if (open == std::string_view::npos || s.back() != ')') {
      error(st.line, st.mnemonic + ": malformed memory operand '" + std::string(s) + "'");
      return false;
    }
    std::string_view inside = s.substr(open + 1, s.size() - open - 2);
    std::string_view prefix = trim(s.substr(0, open));
    out = MemOperand{};
    if (!inside.empty() && inside.back() == '!') {
      out.post_increment = true;
      inside = trim(inside.substr(0, inside.size() - 1));
    }
    const int base = parse_register(inside);
    if (base < 0) {
      error(st.line, st.mnemonic + ": bad base register '" + std::string(inside) + "'");
      return false;
    }
    out.base = static_cast<u8>(base);
    if (prefix.empty()) {
      out.offset = 0;
      return true;
    }
    const int off_reg = parse_register(prefix);
    if (off_reg >= 0) {
      out.reg_offset = true;
      out.offset_reg = static_cast<u8>(off_reg);
      return true;
    }
    long long v = 0;
    if (!eval(prefix, st.addr, v) || v < -2048 || v > 2047) {
      error(st.line, st.mnemonic + ": bad/out-of-range offset '" + std::string(prefix) + "'");
      return false;
    }
    out.offset = static_cast<i32>(v);
    return true;
  }

  bool branch_target(const Statement& st, std::size_t idx, i32& out, i64 range) {
    if (idx >= st.operands.size()) {
      error(st.line, st.mnemonic + ": missing branch target");
      return false;
    }
    long long v = 0;
    if (!eval(st.operands[idx], st.addr, v)) {
      error(st.line, st.mnemonic + ": cannot resolve target '" + st.operands[idx] + "'");
      return false;
    }
    const i64 delta = v - static_cast<i64>(st.addr);
    if (delta < -range || delta >= range || (delta & 1) != 0) {
      error(st.line, st.mnemonic + ": target out of range (delta " + std::to_string(delta) + ")");
      return false;
    }
    out = static_cast<i32>(delta);
    return true;
  }

  bool csr_operand(const Statement& st, std::size_t idx, u16& out) {
    if (idx >= st.operands.size()) {
      error(st.line, st.mnemonic + ": missing CSR operand");
      return false;
    }
    const auto csr = parse_csr_name(st.operands[idx]);
    if (!csr) {
      error(st.line, st.mnemonic + ": unknown CSR '" + st.operands[idx] + "'");
      return false;
    }
    out = *csr;
    return true;
  }

  // --------------------------------------------------------- infrastructure
  static std::string strip_comment(std::string_view line) {
    std::string out;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' || line[i] == ';') {
        break;
      }
      if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        break;
      }
      out += line[i];
    }
    return out;
  }

  /// Find a label-defining ':' (not inside parens).
  static std::size_t find_label_colon(std::string_view s) {
    int depth = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] == '(') {
        ++depth;
      } else if (s[i] == ')') {
        --depth;
      } else if (s[i] == ':' && depth == 0) {
        // Only treat as label if everything before is one identifier.
        const std::string_view head = trim(s.substr(0, i));
        if (!head.empty() && valid_symbol(std::string(head))) {
          return i;
        }
        return std::string_view::npos;
      } else if (std::isspace(static_cast<unsigned char>(s[i])) != 0) {
        // Mnemonic boundary reached before ':' -> not a label.
        const std::string_view head = trim(s.substr(0, i));
        if (!head.empty() && s.find(':', i) != std::string_view::npos) {
          // e.g. "lw a0, label:" is malformed; let operand parsing complain.
        }
        return std::string_view::npos;
      }
    }
    return std::string_view::npos;
  }

  static bool valid_symbol(const std::string& s) {
    if (s.empty() || (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_' &&
                      s[0] != '.')) {
      return false;
    }
    for (const char c : s) {
      if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '.' &&
          c != '$') {
        return false;
      }
    }
    return true;
  }

  /// Split "a, b, 4(sp)" into operands; first field is the mnemonic.
  static std::vector<std::string> split_operands(std::string_view body) {
    std::vector<std::string> out;
    // Mnemonic = up to first whitespace.
    std::size_t i = 0;
    while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i])) == 0) {
      ++i;
    }
    out.emplace_back(body.substr(0, i));
    std::string_view rest = trim(body.substr(i));
    if (rest.empty()) {
      return out;
    }
    int depth = 0;
    std::size_t start = 0;
    for (std::size_t j = 0; j <= rest.size(); ++j) {
      if (j == rest.size() || (rest[j] == ',' && depth == 0)) {
        out.emplace_back(trim(rest.substr(start, j - start)));
        start = j + 1;
      } else if (rest[j] == '(') {
        ++depth;
      } else if (rest[j] == ')') {
        --depth;
      }
    }
    return out;
  }

  void define_symbol(int line, const std::string& name, u32 value) {
    if (symbols_.count(name) != 0) {
      error(line, "duplicate symbol '" + name + "'");
      return;
    }
    symbols_[name] = value;
  }

  /// Evaluate expression with symbols; `here` is the statement address.
  bool eval(std::string_view expr, u32 here, long long& out) {
    return eval_impl(expr, here, true, out);
  }

  /// Pass-1 evaluation: already-defined symbols (e.g. earlier .equ) are
  /// available; forward references fail (callers fall back conservatively).
  bool eval_const(std::string_view expr, long long& out) {
    return eval_impl(expr, 0, true, out);
  }

  bool eval_impl(std::string_view expr, u32 here, bool allow_symbols, long long& out) {
    expr = trim(expr);
    if (expr.empty()) {
      return false;
    }
    // %hi(...) / %lo(...)
    if (starts_with(expr, "%hi(") && expr.back() == ')') {
      long long inner = 0;
      if (!eval_impl(expr.substr(4, expr.size() - 5), here, allow_symbols, inner)) {
        return false;
      }
      out = ((inner + 0x800) >> 12) & 0xFFFFF;
      return true;
    }
    if (starts_with(expr, "%lo(") && expr.back() == ')') {
      long long inner = 0;
      if (!eval_impl(expr.substr(4, expr.size() - 5), here, allow_symbols, inner)) {
        return false;
      }
      const auto low = static_cast<i32>((static_cast<u32>(inner) << 20U)) >> 20U;
      out = low;
      return true;
    }
    // Sum of terms.
    long long acc = 0;
    int sign = 1;
    std::size_t i = 0;
    bool any = false;
    while (i <= expr.size()) {
      // Find term end: next +/- at depth 0 that is not a leading sign.
      std::size_t start = i;
      if (start < expr.size() && (expr[start] == '+' || expr[start] == '-')) {
        ++start;  // leading sign belongs to term
      }
      std::size_t j = start;
      int depth = 0;
      while (j < expr.size()) {
        const char c = expr[j];
        if (c == '(') {
          ++depth;
        } else if (c == ')') {
          --depth;
        } else if ((c == '+' || c == '-') && depth == 0) {
          break;
        }
        ++j;
      }
      std::string_view term = trim(expr.substr(i, j - i));
      if (term.empty()) {
        return false;
      }
      int term_sign = sign;
      if (term.front() == '+') {
        term.remove_prefix(1);
      } else if (term.front() == '-') {
        term_sign = -term_sign;
        term.remove_prefix(1);
      }
      term = trim(term);
      long long value = 0;
      if (term == ".") {
        value = here;
      } else if (!parse_int(term, value)) {
        if (!allow_symbols) {
          return false;
        }
        const auto it = symbols_.find(std::string(term));
        if (it == symbols_.end()) {
          return false;
        }
        value = it->second;
      }
      acc += term_sign * value;
      any = true;
      if (j >= expr.size()) {
        break;
      }
      sign = expr[j] == '-' ? -1 : 1;
      i = j + 1;
      // Handled sign explicitly; reset for next term.
      if (sign == -1) {
        sign = 1;
        i = j;  // reprocess the '-' as the term's leading sign
      }
    }
    out = acc;
    return any;
  }

  static bool fits_i12(long long v) { return v >= -2048 && v <= 2047; }

  void error(int line, const std::string& msg) {
    errors_.push_back("line " + std::to_string(line) + ": " + msg);
  }

  AsmOptions options_;
  std::vector<Statement> statements_;
  std::map<std::string, u32> symbols_;
  std::vector<std::string> errors_;
  Program program_;
  u32 entry_ = 0;
};

std::vector<u32> Assembler::emit_instr(const Statement& st) {
  const std::string& m = st.mnemonic;
  auto one = [](const Instr& i) { return std::vector<u32>{encode(i)}; };
  Instr in;

  // ---- R-type ALU ops ------------------------------------------------
  static const std::map<std::string, Op> kRType = {
      {"add", Op::kAdd},       {"sub", Op::kSub},   {"sll", Op::kSll},
      {"slt", Op::kSlt},       {"sltu", Op::kSltu}, {"xor", Op::kXor},
      {"srl", Op::kSrl},       {"sra", Op::kSra},   {"or", Op::kOr},
      {"and", Op::kAnd},       {"mul", Op::kMul},   {"mulh", Op::kMulh},
      {"mulhsu", Op::kMulhsu}, {"mulhu", Op::kMulhu}, {"div", Op::kDiv},
      {"divu", Op::kDivu},     {"rem", Op::kRem},   {"remu", Op::kRemu},
      {"p.mac", Op::kPMac},    {"p.msu", Op::kPMsu}, {"p.max", Op::kPMax},
      {"p.min", Op::kPMin}};
  if (const auto it = kRType.find(m); it != kRType.end()) {
    in.op = it->second;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1) ||
        !reg_operand(st, 2, in.rs2)) {
      return {};
    }
    return one(in);
  }
  if (m == "p.abs") {
    in.op = Op::kPAbs;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1)) {
      return {};
    }
    return one(in);
  }

  // ---- I-type ALU ops --------------------------------------------------
  static const std::map<std::string, Op> kIType = {
      {"addi", Op::kAddi}, {"slti", Op::kSlti},   {"sltiu", Op::kSltiu},
      {"xori", Op::kXori}, {"ori", Op::kOri},     {"andi", Op::kAndi}};
  if (const auto it = kIType.find(m); it != kIType.end()) {
    in.op = it->second;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1) ||
        !imm_operand(st, 2, -2048, 2047, in.imm)) {
      return {};
    }
    return one(in);
  }
  if (m == "slli" || m == "srli" || m == "srai") {
    in.op = m == "slli" ? Op::kSlli : (m == "srli" ? Op::kSrli : Op::kSrai);
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1) ||
        !imm_operand(st, 2, 0, 31, in.imm)) {
      return {};
    }
    return one(in);
  }

  // ---- loads / stores ---------------------------------------------------
  static const std::map<std::string, Op> kLoads = {{"lb", Op::kLb},   {"lh", Op::kLh},
                                                   {"lw", Op::kLw},   {"lbu", Op::kLbu},
                                                   {"lhu", Op::kLhu}};
  if (const auto it = kLoads.find(m); it != kLoads.end()) {
    MemOperand mem;
    if (!reg_operand(st, 0, in.rd) || !mem_operand(st, 1, mem)) {
      return {};
    }
    if (mem.post_increment || mem.reg_offset) {
      error(st.line, m + ": post-increment requires the p.lw mnemonic");
      return {};
    }
    in.op = it->second;
    in.rs1 = mem.base;
    in.imm = mem.offset;
    return one(in);
  }
  static const std::map<std::string, Op> kStores = {{"sb", Op::kSb}, {"sh", Op::kSh},
                                                    {"sw", Op::kSw}};
  if (const auto it = kStores.find(m); it != kStores.end()) {
    MemOperand mem;
    u8 src = 0;
    if (!reg_operand(st, 0, src) || !mem_operand(st, 1, mem)) {
      return {};
    }
    if (mem.post_increment || mem.reg_offset) {
      error(st.line, m + ": post-increment requires the p.sw mnemonic");
      return {};
    }
    in.op = it->second;
    in.rs1 = mem.base;
    in.rs2 = src;
    in.imm = mem.offset;
    return one(in);
  }
  if (m == "p.lw") {
    MemOperand mem;
    if (!reg_operand(st, 0, in.rd) || !mem_operand(st, 1, mem)) {
      return {};
    }
    if (!mem.post_increment) {
      error(st.line, "p.lw requires the (reg!) post-increment form");
      return {};
    }
    in.rs1 = mem.base;
    if (mem.reg_offset) {
      in.op = Op::kPLwRPost;
      in.rs2 = mem.offset_reg;
    } else {
      in.op = Op::kPLwPost;
      in.imm = mem.offset;
    }
    return one(in);
  }
  if (m == "p.sw") {
    MemOperand mem;
    u8 src = 0;
    if (!reg_operand(st, 0, src) || !mem_operand(st, 1, mem)) {
      return {};
    }
    if (!mem.post_increment || mem.reg_offset) {
      error(st.line, "p.sw supports only the imm(reg!) form");
      return {};
    }
    in.op = Op::kPSwPost;
    in.rs1 = mem.base;
    in.rs2 = src;
    in.imm = mem.offset;
    return one(in);
  }

  // ---- branches ----------------------------------------------------------
  static const std::map<std::string, Op> kBranches = {
      {"beq", Op::kBeq}, {"bne", Op::kBne},   {"blt", Op::kBlt},
      {"bge", Op::kBge}, {"bltu", Op::kBltu}, {"bgeu", Op::kBgeu}};
  if (const auto it = kBranches.find(m); it != kBranches.end()) {
    in.op = it->second;
    if (!reg_operand(st, 0, in.rs1) || !reg_operand(st, 1, in.rs2) ||
        !branch_target(st, 2, in.imm, 4096)) {
      return {};
    }
    return one(in);
  }
  // Swapped-operand pseudo branches.
  static const std::map<std::string, Op> kSwapped = {
      {"bgt", Op::kBlt}, {"ble", Op::kBge}, {"bgtu", Op::kBltu}, {"bleu", Op::kBgeu}};
  if (const auto it = kSwapped.find(m); it != kSwapped.end()) {
    in.op = it->second;
    if (!reg_operand(st, 0, in.rs2) || !reg_operand(st, 1, in.rs1) ||
        !branch_target(st, 2, in.imm, 4096)) {
      return {};
    }
    return one(in);
  }
  static const std::map<std::string, std::pair<Op, bool>> kZeroBranches = {
      {"beqz", {Op::kBeq, false}}, {"bnez", {Op::kBne, false}},
      {"bltz", {Op::kBlt, false}}, {"bgez", {Op::kBge, false}},
      {"bgtz", {Op::kBlt, true}},  {"blez", {Op::kBge, true}}};
  if (const auto it = kZeroBranches.find(m); it != kZeroBranches.end()) {
    in.op = it->second.first;
    u8 r = 0;
    if (!reg_operand(st, 0, r) || !branch_target(st, 1, in.imm, 4096)) {
      return {};
    }
    if (it->second.second) {  // rs on the rs2 side (bgtz/blez)
      in.rs1 = 0;
      in.rs2 = r;
    } else {
      in.rs1 = r;
      in.rs2 = 0;
    }
    return one(in);
  }

  // ---- jumps --------------------------------------------------------------
  if (m == "jal") {
    in.op = Op::kJal;
    if (st.operands.size() == 1) {
      in.rd = 1;  // ra
      if (!branch_target(st, 0, in.imm, 1 << 20)) {
        return {};
      }
    } else {
      if (!reg_operand(st, 0, in.rd) || !branch_target(st, 1, in.imm, 1 << 20)) {
        return {};
      }
    }
    return one(in);
  }
  if (m == "j") {
    in.op = Op::kJal;
    in.rd = 0;
    if (!branch_target(st, 0, in.imm, 1 << 20)) {
      return {};
    }
    return one(in);
  }
  if (m == "call") {
    in.op = Op::kJal;
    in.rd = 1;
    if (!branch_target(st, 0, in.imm, 1 << 20)) {
      return {};
    }
    return one(in);
  }
  if (m == "jalr") {
    in.op = Op::kJalr;
    if (st.operands.size() == 1) {
      in.rd = 1;
      if (!reg_operand(st, 0, in.rs1)) {
        return {};
      }
    } else if (st.operands.size() == 2 && st.operands[1].find('(') != std::string::npos) {
      MemOperand mem;
      if (!reg_operand(st, 0, in.rd) || !mem_operand(st, 1, mem) || mem.post_increment) {
        return {};
      }
      in.rs1 = mem.base;
      in.imm = mem.offset;
    } else {
      if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1)) {
        return {};
      }
      if (st.operands.size() > 2 && !imm_operand(st, 2, -2048, 2047, in.imm)) {
        return {};
      }
    }
    return one(in);
  }
  if (m == "jr") {
    in.op = Op::kJalr;
    in.rd = 0;
    if (!reg_operand(st, 0, in.rs1)) {
      return {};
    }
    return one(in);
  }
  if (m == "ret") {
    in.op = Op::kJalr;
    in.rd = 0;
    in.rs1 = 1;
    return one(in);
  }

  // ---- U-type ----------------------------------------------------------
  if (m == "lui" || m == "auipc") {
    in.op = m == "lui" ? Op::kLui : Op::kAuipc;
    i32 v = 0;
    if (!reg_operand(st, 0, in.rd) || !imm_operand(st, 1, 0, 0xFFFFF, v)) {
      return {};
    }
    in.imm = v << 12;
    return one(in);
  }

  // ---- AMO ----------------------------------------------------------------
  static const std::map<std::string, Op> kAmos = {
      {"amoswap.w", Op::kAmoSwapW}, {"amoadd.w", Op::kAmoAddW},
      {"amoxor.w", Op::kAmoXorW},   {"amoand.w", Op::kAmoAndW},
      {"amoor.w", Op::kAmoOrW},     {"amomin.w", Op::kAmoMinW},
      {"amomax.w", Op::kAmoMaxW},   {"amominu.w", Op::kAmoMinuW},
      {"amomaxu.w", Op::kAmoMaxuW}};
  if (const auto it = kAmos.find(m); it != kAmos.end()) {
    in.op = it->second;
    MemOperand mem;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs2) ||
        !mem_operand(st, 2, mem) || mem.post_increment) {
      return {};
    }
    if (mem.offset != 0) {
      error(st.line, m + ": AMO address must have zero offset");
      return {};
    }
    in.rs1 = mem.base;
    return one(in);
  }
  if (m == "lr.w") {
    in.op = Op::kLrW;
    MemOperand mem;
    if (!reg_operand(st, 0, in.rd) || !mem_operand(st, 1, mem)) {
      return {};
    }
    in.rs1 = mem.base;
    return one(in);
  }
  if (m == "sc.w") {
    in.op = Op::kScW;
    MemOperand mem;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs2) ||
        !mem_operand(st, 2, mem)) {
      return {};
    }
    in.rs1 = mem.base;
    return one(in);
  }

  // ---- CSR ----------------------------------------------------------------
  if (m == "csrrw" || m == "csrrs" || m == "csrrc") {
    in.op = m == "csrrw" ? Op::kCsrrw : (m == "csrrs" ? Op::kCsrrs : Op::kCsrrc);
    if (!reg_operand(st, 0, in.rd) || !csr_operand(st, 1, in.csr) ||
        !reg_operand(st, 2, in.rs1)) {
      return {};
    }
    return one(in);
  }
  if (m == "csrrwi" || m == "csrrsi" || m == "csrrci") {
    in.op = m == "csrrwi" ? Op::kCsrrwi : (m == "csrrsi" ? Op::kCsrrsi : Op::kCsrrci);
    if (!reg_operand(st, 0, in.rd) || !csr_operand(st, 1, in.csr) ||
        !imm_operand(st, 2, 0, 31, in.imm)) {
      return {};
    }
    return one(in);
  }
  if (m == "csrr") {
    in.op = Op::kCsrrs;
    in.rs1 = 0;
    if (!reg_operand(st, 0, in.rd) || !csr_operand(st, 1, in.csr)) {
      return {};
    }
    return one(in);
  }
  if (m == "csrw") {
    in.op = Op::kCsrrw;
    in.rd = 0;
    if (!csr_operand(st, 0, in.csr) || !reg_operand(st, 1, in.rs1)) {
      return {};
    }
    return one(in);
  }

  // ---- system / misc -------------------------------------------------------
  if (m == "ecall") {
    in.op = Op::kEcall;
    return one(in);
  }
  if (m == "ebreak") {
    in.op = Op::kEbreak;
    return one(in);
  }
  if (m == "wfi") {
    in.op = Op::kWfi;
    return one(in);
  }
  if (m == "fence") {
    in.op = Op::kFence;
    return one(in);
  }
  if (m == "nop") {
    in.op = Op::kAddi;
    return one(in);
  }

  // ---- pseudo: mv / not / neg / set-compare ------------------------------
  if (m == "mv") {
    in.op = Op::kAddi;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1)) {
      return {};
    }
    return one(in);
  }
  if (m == "not") {
    in.op = Op::kXori;
    in.imm = -1;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1)) {
      return {};
    }
    return one(in);
  }
  if (m == "neg") {
    in.op = Op::kSub;
    in.rs1 = 0;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs2)) {
      return {};
    }
    return one(in);
  }
  if (m == "seqz") {
    in.op = Op::kSltiu;
    in.imm = 1;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs1)) {
      return {};
    }
    return one(in);
  }
  if (m == "snez") {
    in.op = Op::kSltu;
    in.rs1 = 0;
    if (!reg_operand(st, 0, in.rd) || !reg_operand(st, 1, in.rs2)) {
      return {};
    }
    return one(in);
  }

  // ---- pseudo: li / la ------------------------------------------------------
  if (m == "li" || m == "la") {
    u8 rd = 0;
    if (!reg_operand(st, 0, rd)) {
      return {};
    }
    long long v = 0;
    if (st.operands.size() < 2 || !eval(st.operands[1], st.addr, v)) {
      error(st.line, m + ": cannot evaluate operand");
      return {};
    }
    const auto value = static_cast<u32>(v);
    if (st.words == 1) {
      Instr addi;
      addi.op = Op::kAddi;
      addi.rd = rd;
      addi.rs1 = 0;
      addi.imm = static_cast<i32>(value);
      return one(addi);
    }
    // lui+addi pair, correcting for the sign extension of the low part.
    const u32 hi = (value + 0x800U) & 0xFFFFF000U;
    const auto lo = static_cast<i32>(value - hi);
    Instr lui;
    lui.op = Op::kLui;
    lui.rd = rd;
    lui.imm = static_cast<i32>(hi);
    Instr addi;
    addi.op = Op::kAddi;
    addi.rd = rd;
    addi.rs1 = rd;
    addi.imm = lo;
    return {encode(lui), encode(addi)};
  }

  error(st.line, "unknown mnemonic '" + m + "'");
  return {};
}

}  // namespace

int parse_register(std::string_view name) {
  const std::string n = to_lower(trim(name));
  if (n.size() >= 2 && n[0] == 'x') {
    long long idx = 0;
    if (parse_int(n.substr(1), idx) && idx >= 0 && idx < 32) {
      return static_cast<int>(idx);
    }
    return -1;
  }
  if (n == "fp") {
    return 8;
  }
  for (int i = 0; i < 32; ++i) {
    if (n == kAbiNames[i]) {
      return i;
    }
  }
  return -1;
}

const char* register_abi_name(unsigned reg) {
  MP3D_ASSERT(reg < 32);
  return kAbiNames[reg];
}

namespace {

/// Sources whose programs the memo keeps. A sweep or a job queue cycles
/// through a handful of kernels; 16 covers that with room to spare.
constexpr std::size_t kMemoCapacity = 16;

struct MemoEntry {
  std::string source;
  AsmOptions options;
  Program program;
};

/// Assembled programs of recent sources, most recently used first.
struct Memo {
  std::mutex mutex;
  std::vector<MemoEntry> entries;  ///< guarded by `mutex`
};

Memo& memo() {
  static Memo m;
  return m;
}

}  // namespace

Program assemble(std::string_view source, const AsmOptions& options) {
  Memo& m = memo();
  const auto same_key = [&](const MemoEntry& e) {
    return e.options == options && e.source == source;
  };
  {
    std::scoped_lock lock(m.mutex);
    const auto hit = std::find_if(m.entries.begin(), m.entries.end(), same_key);
    if (hit != m.entries.end()) {
      std::rotate(m.entries.begin(), hit, hit + 1);
      return m.entries.front().program;
    }
  }
  // Assemble outside the lock, so misses on different sources do not
  // queue behind each other. A source that throws is never stored.
  Program program = Assembler(options).run(source);
  std::scoped_lock lock(m.mutex);
  if (std::none_of(m.entries.begin(), m.entries.end(), same_key)) {
    if (m.entries.size() == kMemoCapacity) {
      m.entries.pop_back();
    }
    m.entries.insert(m.entries.begin(), MemoEntry{std::string(source), options, program});
  }
  return program;
}

}  // namespace mp3d::isa
