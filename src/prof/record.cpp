// SPDX-License-Identifier: Apache-2.0
#include "prof/record.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace mp3d::prof {

namespace {

std::string fmt_double(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream oss;
  oss.precision(15);
  oss << v;
  return oss.str();
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader. The repo only ever *wrote* JSON
// before this; the comparator is the first consumer, and it needs just
// enough of the grammar to read its own records back — objects, arrays,
// strings with the escapes json_escape() emits, numbers, true/false/null.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) {
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after the top-level value");
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " (at byte " + std::to_string(pos_) + ")";
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) {
      return fail(std::string("expected '") + word + "'");
    }
    pos_ += len;
    return true;
  }

  bool value(JsonValue& out) {
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JsonValue::Kind::kString; return string(out.string);
      case 't': out.kind = JsonValue::Kind::kBool; out.boolean = true;
                return literal("true", 4);
      case 'f': out.kind = JsonValue::Kind::kBool; out.boolean = false;
                return literal("false", 5);
      case 'n': out.kind = JsonValue::Kind::kNull; return literal("null", 4);
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(member)) {
        return false;
      }
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue item;
      if (!value(item)) {
        return false;
      }
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        return fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          break;
        }
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // json_escape() only emits \u00XX for control bytes; decode the
            // low byte and ignore the (always-zero) high byte.
            if (pos_ + 4 > text_.size()) {
              return fail("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos_ += 4;
            out += static_cast<char>(code & 0xFF);
            break;
          }
          default: return fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected a value");
    }
    out.kind = JsonValue::Kind::kNumber;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return fail("malformed number");
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

double num_or(const JsonValue& obj, const std::string& key, double fallback) {
  const JsonValue* v = obj.get(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number
                                                               : fallback;
}

u64 u64_or(const JsonValue& obj, const std::string& key, u64 fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber || v->number < 0) {
    return fallback;
  }
  return static_cast<u64>(v->number);
}

/// Throughput of a workload, recomputed from cycles/wall when the record
/// predates the explicit field. Returns 0 when not derivable.
double workload_mcps(const WorkloadRecord& w) {
  if (std::isfinite(w.mcycles_per_sec) && w.mcycles_per_sec > 0.0) {
    return w.mcycles_per_sec;
  }
  if (w.sim_cycles > 0 && std::isfinite(w.wall_ms) && w.wall_ms > 0.0) {
    return static_cast<double>(w.sim_cycles) / (w.wall_ms * 1e3);
  }
  return 0.0;
}

bool usable(double v) { return std::isfinite(v) && v > 0.0; }

Verdict classify(double ratio, double tolerance) {
  if (!std::isfinite(ratio) || ratio <= 0.0) {
    return Verdict::kNoData;
  }
  if (ratio < 1.0 - tolerance) {
    return Verdict::kRegression;
  }
  if (ratio > 1.0 + tolerance) {
    return Verdict::kImprovement;
  }
  return Verdict::kWithinTolerance;
}

WorkloadComparison compare_workload(const WorkloadRecord* base,
                                    const WorkloadRecord* cur,
                                    const std::string& name, double tolerance) {
  WorkloadComparison c;
  c.name = name;
  if (base == nullptr || cur == nullptr) {
    return c;  // kNoData: the workload set drifted between records
  }
  const double base_mcps = workload_mcps(*base);
  const double cur_mcps = workload_mcps(*cur);
  if (usable(base_mcps) && usable(cur_mcps)) {
    c.metric = "Mcycles/s";
    c.baseline = base_mcps;
    c.current = cur_mcps;
    c.ratio = cur_mcps / base_mcps;
  } else if (usable(base->wall_ms) && usable(cur->wall_ms)) {
    // No sim-cycle accounting on one side: fall back to wall clock, still
    // oriented so higher ratio = faster.
    c.metric = "1/wall";
    c.baseline = 1e3 / base->wall_ms;
    c.current = 1e3 / cur->wall_ms;
    c.ratio = base->wall_ms / cur->wall_ms;
  } else {
    return c;  // zero / NaN walls on either side: nothing to judge
  }
  c.verdict = classify(c.ratio, tolerance);
  return c;
}

}  // namespace

std::string PerfRecord::to_json() const {
  std::string j = "{\n";
  j += "  \"bench\": \"" + json_escape(bench) + "\",\n";
  j += "  \"suite\": \"" + json_escape(suite) + "\",\n";
  j += "  \"schema\": " + std::to_string(schema) + ",\n";
  j += "  \"scenarios\": " + std::to_string(scenarios) + ",\n";
  j += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  j += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  j += "  \"wall_ms\": " + fmt_double(wall_ms) + ",\n";
  j += "  \"scenarios_per_sec\": " + fmt_double(scenarios_per_sec) + ",\n";
  j += "  \"sim_cycles\": " + std::to_string(sim_cycles) + ",\n";
  j += "  \"mcycles_per_sec\": " + fmt_double(mcycles_per_sec) + ",\n";
  j += "  \"workloads\": [";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadRecord& w = workloads[i];
    j += (i == 0 ? "\n" : ",\n");
    j += "    {\n";
    j += "      \"name\": \"" + json_escape(w.name) + "\",\n";
    j += "      \"wall_ms\": " + fmt_double(w.wall_ms) + ",\n";
    j += "      \"sim_cycles\": " + std::to_string(w.sim_cycles) + ",\n";
    j += "      \"sim_instret\": " + std::to_string(w.sim_instret) + ",\n";
    j += "      \"mcycles_per_sec\": " + fmt_double(w.mcycles_per_sec) + ",\n";
    j += "      \"minstr_per_sec\": " + fmt_double(w.minstr_per_sec) + ",\n";
    j += "      \"breakdown\": {";
    for (std::size_t k = 0; k < w.breakdown.size(); ++k) {
      j += (k == 0 ? "\n" : ",\n");
      j += "        \"" + json_escape(w.breakdown[k].first) +
           "\": " + fmt_double(w.breakdown[k].second);
    }
    j += w.breakdown.empty() ? "}\n" : "\n      }\n";
    j += "    }";
  }
  j += workloads.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return j;
}

const WorkloadRecord* PerfRecord::find(const std::string& name) const {
  for (const WorkloadRecord& w : workloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

ParseResult parse_perf_record(const std::string& json) {
  ParseResult out;
  JsonValue root;
  JsonReader reader(json);
  if (!reader.parse(root)) {
    out.error = "malformed JSON: " + reader.error();
    return out;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    out.error = "perf record must be a JSON object";
    return out;
  }
  const JsonValue* bench = root.get("bench");
  if (bench == nullptr || bench->kind != JsonValue::Kind::kString ||
      bench->string.empty()) {
    out.error = "missing required key \"bench\"";
    return out;
  }
  const JsonValue* wall = root.get("wall_ms");
  if (wall == nullptr || wall->kind != JsonValue::Kind::kNumber) {
    out.error = "missing required key \"wall_ms\"";
    return out;
  }
  PerfRecord& rec = out.record;
  rec.bench = bench->string;
  rec.wall_ms = wall->number;
  if (const JsonValue* suite = root.get("suite");
      suite != nullptr && suite->kind == JsonValue::Kind::kString) {
    rec.suite = suite->string;
  }
  rec.schema = static_cast<u32>(u64_or(root, "schema", 1));
  rec.scenarios = u64_or(root, "scenarios", 0);
  rec.jobs = static_cast<u32>(u64_or(root, "jobs", 0));
  if (const JsonValue* smoke = root.get("smoke");
      smoke != nullptr && smoke->kind == JsonValue::Kind::kBool) {
    rec.smoke = smoke->boolean;
  }
  rec.scenarios_per_sec = num_or(root, "scenarios_per_sec", 0.0);
  rec.sim_cycles = u64_or(root, "sim_cycles", 0);
  rec.mcycles_per_sec = num_or(root, "mcycles_per_sec", 0.0);
  const JsonValue* workloads = root.get("workloads");
  if (workloads != nullptr) {
    if (workloads->kind != JsonValue::Kind::kArray) {
      out.error = "\"workloads\" must be an array";
      return out;
    }
    for (std::size_t i = 0; i < workloads->items.size(); ++i) {
      const JsonValue& entry = workloads->items[i];
      if (entry.kind != JsonValue::Kind::kObject) {
        out.error = "workload " + std::to_string(i) + " is not an object";
        return out;
      }
      const JsonValue* name = entry.get("name");
      if (name == nullptr || name->kind != JsonValue::Kind::kString ||
          name->string.empty()) {
        out.error = "workload " + std::to_string(i) + " is missing \"name\"";
        return out;
      }
      const JsonValue* w_wall = entry.get("wall_ms");
      if (w_wall == nullptr || w_wall->kind != JsonValue::Kind::kNumber) {
        out.error = "workload \"" + name->string + "\" is missing \"wall_ms\"";
        return out;
      }
      WorkloadRecord w;
      w.name = name->string;
      w.wall_ms = w_wall->number;
      w.sim_cycles = u64_or(entry, "sim_cycles", 0);
      w.sim_instret = u64_or(entry, "sim_instret", 0);
      w.mcycles_per_sec = num_or(entry, "mcycles_per_sec", 0.0);
      w.minstr_per_sec = num_or(entry, "minstr_per_sec", 0.0);
      if (const JsonValue* bd = entry.get("breakdown");
          bd != nullptr && bd->kind == JsonValue::Kind::kObject) {
        for (const auto& [key, val] : bd->members) {
          if (val.kind == JsonValue::Kind::kNumber) {
            w.breakdown.emplace_back(key, val.number);
          }
        }
      }
      rec.workloads.push_back(std::move(w));
    }
  }
  return out;
}

ParseResult load_perf_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ParseResult out;
    out.error = "cannot open perf record '" + path + "'";
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ParseResult out = parse_perf_record(buf.str());
  if (!out.ok()) {
    out.error = path + ": " + out.error;
  }
  return out;
}

PerfRecord best_of(const std::vector<PerfRecord>& records) {
  if (records.empty()) {
    return PerfRecord{};
  }
  PerfRecord best = records.front();
  for (std::size_t i = 1; i < records.size(); ++i) {
    const PerfRecord& rec = records[i];
    if (usable(rec.wall_ms) &&
        (!usable(best.wall_ms) || rec.wall_ms < best.wall_ms)) {
      best.wall_ms = rec.wall_ms;
      best.scenarios_per_sec = rec.scenarios_per_sec;
      best.mcycles_per_sec = rec.mcycles_per_sec;
    }
    for (const WorkloadRecord& w : rec.workloads) {
      WorkloadRecord* mine = nullptr;
      for (WorkloadRecord& b : best.workloads) {
        if (b.name == w.name) {
          mine = &b;
          break;
        }
      }
      if (mine == nullptr) {
        best.workloads.push_back(w);
        continue;
      }
      // Keep the fastest rep of this workload across the records.
      if (workload_mcps(w) > workload_mcps(*mine) ||
          (workload_mcps(w) == workload_mcps(*mine) && usable(w.wall_ms) &&
           (!usable(mine->wall_ms) || w.wall_ms < mine->wall_ms))) {
        *mine = w;
      }
    }
  }
  return best;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kRegression: return "REGRESSION";
    case Verdict::kWithinTolerance: return "ok";
    case Verdict::kImprovement: return "improvement";
    case Verdict::kNoData: return "no data";
  }
  return "?";
}

bool Comparison::regression() const {
  for (const WorkloadComparison& w : workloads) {
    if (w.verdict == Verdict::kRegression) {
      return true;
    }
  }
  return false;
}

std::size_t Comparison::count(Verdict verdict) const {
  std::size_t n = 0;
  for (const WorkloadComparison& w : workloads) {
    if (w.verdict == verdict) {
      ++n;
    }
  }
  return n;
}

std::size_t Comparison::comparable() const {
  return workloads.size() - count(Verdict::kNoData);
}

Comparison compare_records(const PerfRecord& baseline, const PerfRecord& current,
                           double tolerance) {
  Comparison out;
  out.tolerance = tolerance;
  if (baseline.workloads.empty() && current.workloads.empty()) {
    // Schema-1 records carry suite-level numbers only; compare those as a
    // single synthetic row so old baselines still gate something.
    WorkloadRecord base_sweep, cur_sweep;
    base_sweep.name = cur_sweep.name = "(sweep)";
    base_sweep.wall_ms = baseline.wall_ms;
    base_sweep.sim_cycles = baseline.sim_cycles;
    base_sweep.mcycles_per_sec = baseline.mcycles_per_sec;
    cur_sweep.wall_ms = current.wall_ms;
    cur_sweep.sim_cycles = current.sim_cycles;
    cur_sweep.mcycles_per_sec = current.mcycles_per_sec;
    out.workloads.push_back(
        compare_workload(&base_sweep, &cur_sweep, "(sweep)", tolerance));
    return out;
  }
  // Baseline order first (so a dropped workload shows up as "no data"),
  // then any workloads new in the current record.
  for (const WorkloadRecord& base : baseline.workloads) {
    out.workloads.push_back(compare_workload(
        &base, current.find(base.name), base.name, tolerance));
  }
  for (const WorkloadRecord& cur : current.workloads) {
    if (baseline.find(cur.name) == nullptr) {
      out.workloads.push_back(
          compare_workload(nullptr, &cur, cur.name, tolerance));
    }
  }
  return out;
}

std::string comparison_table(const Comparison& comparison, bool markdown) {
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };
  std::string out;
  if (markdown) {
    out += "| workload | metric | baseline | current | ratio | verdict |\n";
    out += "|---|---|---:|---:|---:|---|\n";
    for (const WorkloadComparison& w : comparison.workloads) {
      out += "| " + w.name + " | " + (w.metric.empty() ? "-" : w.metric) +
             " | " + fmt(w.baseline) + " | " + fmt(w.current) + " | " +
             (w.verdict == Verdict::kNoData ? std::string("-") : fmt(w.ratio)) +
             " | " + verdict_name(w.verdict) + " |\n";
    }
  } else {
    std::size_t width = 8;
    for (const WorkloadComparison& w : comparison.workloads) {
      width = std::max(width, w.name.size());
    }
    for (const WorkloadComparison& w : comparison.workloads) {
      out += "  " + w.name + std::string(width - w.name.size() + 2, ' ');
      if (w.verdict == Verdict::kNoData) {
        out += "no data\n";
        continue;
      }
      out += w.metric + " " + fmt(w.baseline) + " -> " + fmt(w.current) +
             "  (x" + fmt(w.ratio) + ", " + verdict_name(w.verdict) + ")\n";
    }
  }
  char tol[128];
  std::snprintf(tol, sizeof(tol),
                "%stolerance +/-%.0f%%: %zu compared, %zu regressed, "
                "%zu improved, %zu no-data%s",
                markdown ? "\n" : "  ", comparison.tolerance * 100.0,
                comparison.comparable(), comparison.count(Verdict::kRegression),
                comparison.count(Verdict::kImprovement),
                comparison.count(Verdict::kNoData), "\n");
  out += tol;
  return out;
}

}  // namespace mp3d::prof
