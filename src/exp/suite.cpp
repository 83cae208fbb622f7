// SPDX-License-Identifier: Apache-2.0
#include "exp/suite.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifdef __linux__
#include <unistd.h>
#endif

#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/collector.hpp"

namespace mp3d::exp {

bool CliOptions::extra(const std::string& flag) const {
  for (const std::string& e : extras) {
    if (e == flag) {
      return true;
    }
  }
  return false;
}

void Suite::gate(std::string name, std::function<std::string(const SweepReport&)> check) {
  gates.emplace_back(std::move(name), std::move(check));
}

std::string parse_cli(int argc, char** argv, CliOptions& options,
                      const std::vector<std::string>& extra_flags) {
  const auto is_extra = [&](const char* arg) {
    for (const std::string& f : extra_flags) {
      if (f == arg) {
        return true;
      }
    }
    return false;
  };
  bool format_given = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--list") == 0) {
      options.list = true;
    } else if (std::strcmp(arg, "--filter") == 0) {
      const char* v = value();
      if (v == nullptr) {
        return "--filter needs a substring";
      }
      options.filters.emplace_back(v);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      const char* v = value();
      char* end = nullptr;
      const long n = v == nullptr ? 0 : std::strtol(v, &end, 10);
      if (v == nullptr || end == v || *end != '\0' || n < 1 || n > 4096) {
        return "--jobs needs a thread count in [1, 4096]";
      }
      options.jobs = static_cast<u32>(n);
    } else if (std::strcmp(arg, "--csv") == 0) {
      if (!format_given) {
        options.csv = false;
        options.json = false;
        format_given = true;
      }
      options.csv = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      if (!format_given) {
        options.csv = false;
        options.json = false;
        format_given = true;
      }
      options.json = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      const char* v = value();
      if (v == nullptr) {
        return "--out needs a directory";
      }
      options.out_dir = v;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(arg, "--progress") == 0) {
      options.progress = true;
    } else if (std::strcmp(arg, "--timeline") == 0) {
      const char* v = value();
      char* end = nullptr;
      const long long n = v == nullptr ? 0 : std::strtoll(v, &end, 10);
      if (v == nullptr || end == v || *end != '\0' || n < 16 ||
          n > (1ll << 30)) {
        return "--timeline needs a sampling window in cycles in [16, 2^30]";
      }
      options.timeline_window = static_cast<u64>(n);
    } else if (std::strcmp(arg, "--trace") == 0) {
      const char* v = value();
      if (v == nullptr || v[0] == '\0') {
        return "--trace needs a filename";
      }
      options.trace_file = v;
    } else if (is_extra(arg)) {
      options.extras.emplace_back(arg);
    } else {
      return std::string("unknown argument: ") + arg;
    }
  }
  if (options.jobs == 0) {
    options.jobs = default_jobs();
  }
  return "";
}

std::string out_dir(const std::string& cli_out) {
  if (!cli_out.empty()) {
    return cli_out;
  }
  if (const char* env = std::getenv("MP3D_BENCH_OUT")) {
    return env;
  }
#ifdef __linux__
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    std::string path(buf, static_cast<std::size_t>(n));
    const auto slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0) {
      return path.substr(0, slash);
    }
  }
#endif
  return ".";
}

std::string write_text_file(const std::string& path, const std::string& content) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      return "cannot create directory " + p.parent_path().string() + ": " +
             ec.message();
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return "cannot open " + path + " for writing";
  }
  out << content;
  out.flush();
  if (!out) {
    return "write to " + path + " failed";
  }
  return "";
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  // JSON has no inf/nan literals.
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr) {
    return "null";
  }
  return buf;
}

void default_report(const Suite& suite, const SweepReport& report) {
  const std::vector<Row> rows = report.rows();
  Table table(suite.title.empty() ? suite.name : suite.title);
  std::vector<std::string> columns = union_columns(rows);
  table.header(columns);
  for (const Row& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(columns.size());
    for (const std::string& col : columns) {
      cells.push_back(row.get(col));
    }
    table.row(std::move(cells));
  }
  std::printf("%s\n", table.to_string().c_str());
}

void print_usage(const char* argv0, const std::vector<std::string>& extra_flags) {
  std::fprintf(stderr,
               "usage: %s [--list] [--filter SUBSTR]... [--jobs N] [--csv] [--json]\n"
               "       [--out DIR] [--smoke] [--progress] [--timeline CYCLES]\n"
               "       [--trace FILE]",
               argv0);
  for (const std::string& f : extra_flags) {
    std::fprintf(stderr, " [%s]", f.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

std::string report_to_json(const Suite& suite, const SweepReport& report,
                           const std::vector<std::pair<std::string, std::string>>&
                               gate_results,
                           const CliOptions& options) {
  std::string j;
  j += "{\n";
  j += "  \"suite\": \"" + json_escape(suite.name) + "\",\n";
  j += "  \"title\": \"" + json_escape(suite.title) + "\",\n";
  j += "  \"jobs\": " + std::to_string(report.jobs) + ",\n";
  j += "  \"smoke\": " + std::string(options.smoke ? "true" : "false") + ",\n";
  j += "  \"wall_ms\": " + json_number(report.wall_ms) + ",\n";
  if (const u64 sim_cycles = report.total_sim_cycles(); sim_cycles > 0) {
    const double secs = report.wall_ms / 1000.0;
    j += "  \"sim_cycles\": " + std::to_string(sim_cycles) + ",\n";
    j += "  \"mcycles_per_sec\": " +
         json_number(secs > 0.0 ? static_cast<double>(sim_cycles) / (secs * 1e6)
                                : 0.0) +
         ",\n";
  }
  j += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& r = report.results[i];
    j += "    {\n";
    j += "      \"name\": \"" + json_escape(r.name) + "\",\n";
    j += "      \"description\": \"" + json_escape(r.description) + "\",\n";
    j += "      \"ok\": " + std::string(r.ok() ? "true" : "false") + ",\n";
    if (!r.ok()) {
      j += "      \"error\": \"" + json_escape(r.error) + "\",\n";
    }
    j += "      \"wall_ms\": " + json_number(r.wall_ms) + ",\n";
    if (r.output.sim_cycles > 0) {
      j += "      \"sim_cycles\": " + std::to_string(r.output.sim_cycles) + ",\n";
      j += "      \"mcycles_per_sec\": " + json_number(r.mcycles_per_sec()) + ",\n";
    }
    j += "      \"metrics\": {";
    for (std::size_t m = 0; m < r.output.metrics.size(); ++m) {
      const auto& [key, val] = r.output.metrics[m];
      j += (m == 0 ? "" : ", ");
      j += '"';
      j += json_escape(key);
      j += "\": ";
      j += json_number(val);
    }
    j += "},\n";
    j += "      \"rows\": [";
    for (std::size_t n = 0; n < r.output.rows.size(); ++n) {
      const Row& row = r.output.rows[n];
      j += (n == 0 ? "" : ", ");
      j += "{";
      for (std::size_t c = 0; c < row.cells().size(); ++c) {
        const auto& [col, val] = row.cells()[c];
        j += (c == 0 ? "" : ", ");
        j += '"';
        j += json_escape(col);
        j += "\": \"";
        j += json_escape(val);
        j += '"';
      }
      j += "}";
    }
    j += "]\n";
    j += i + 1 == report.results.size() ? "    }\n" : "    },\n";
  }
  j += "  ],\n";
  j += "  \"gates\": [";
  for (std::size_t g = 0; g < gate_results.size(); ++g) {
    const auto& [name, message] = gate_results[g];
    j += (g == 0 ? "" : ", ");
    j += "{\"name\": \"";
    j += json_escape(name);
    j += "\", \"passed\": ";
    j += message.empty() ? "true" : "false";
    j += ", \"message\": \"";
    j += json_escape(message);
    j += "\"}";
  }
  j += "]\n";
  j += "}\n";
  return j;
}

int suite_main(int argc, char** argv,
               const std::function<Suite(const CliOptions&)>& make_suite,
               const std::vector<std::string>& extra_flags) {
  CliOptions options;
  const std::string parse_error = parse_cli(argc, argv, options, extra_flags);
  if (!parse_error.empty()) {
    std::fprintf(stderr, "error: %s\n", parse_error.c_str());
    print_usage(argv[0], extra_flags);
    return 2;
  }

  Suite suite;
  try {
    suite = make_suite(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: building suite failed: %s\n", e.what());
    return 2;
  }

  if (options.list) {
    for (const Scenario& s : suite.registry.scenarios()) {
      std::printf("%-32s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }

  const std::vector<Scenario> selected = suite.registry.match(options.filters);
  if (selected.empty()) {
    std::fprintf(stderr, "error: no scenario matches the filter\n");
    return 2;
  }

  RunnerOptions runner;
  runner.jobs = options.jobs;
  runner.progress = options.progress;
  if (options.telemetry()) {
    // Deterministic collection: deposits must arrive in scenario order, and
    // trace pid offsets are assigned per deposit.
    if (runner.jobs != 1) {
      std::fprintf(stderr, "[telemetry active: forcing --jobs 1]\n");
      runner.jobs = 1;
    }
    arch::TelemetryConfig request;
    request.sample_window = static_cast<u32>(options.timeline_window);
    request.trace = !options.trace_file.empty();
    obs::set_global_request(request);
  }
  SweepReport report = run_sweep(selected, runner);

  if (suite.finalize) {
    suite.finalize(report);
  }

  if (suite.report) {
    suite.report(report);
  } else {
    default_report(suite, report);
  }

  for (const ScenarioResult& r : report.results) {
    if (!r.ok()) {
      std::printf("SCENARIO FAILED: %s: %s\n", r.name.c_str(), r.error.c_str());
    }
  }

  // Gates judge the whole sweep; a filtered subset would trip them on
  // missing scenarios, so they only run (and only count) when unfiltered.
  std::vector<std::pair<std::string, std::string>> gate_results;
  bool gates_ok = true;
  if (options.filters.empty()) {
    for (const auto& [name, check] : suite.gates) {
      std::string message;
      try {
        message = check(report);
      } catch (const std::exception& e) {
        message = std::string("gate threw: ") + e.what();
      }
      gate_results.emplace_back(name, message);
      if (!message.empty()) {
        std::printf("GATE FAILED: %s: %s\n", name.c_str(), message.c_str());
        gates_ok = false;
      }
    }
    if (!suite.gates.empty() && gates_ok) {
      std::printf("all gates pass (%zu)\n", suite.gates.size());
    }
  } else if (!suite.gates.empty()) {
    std::printf("[gates skipped: filtered run]\n");
  }

  const std::string dir = out_dir(options.out_dir);
  bool io_ok = true;
  if (options.csv) {
    const std::string path = dir + "/" + suite.name + ".csv";
    const std::string err = write_text_file(path, rows_to_csv(report.rows()));
    if (err.empty()) {
      std::printf("[data written to %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      io_ok = false;
    }
  }
  if (options.json) {
    const std::string path = dir + "/" + suite.name + ".json";
    const std::string err =
        write_text_file(path, report_to_json(suite, report, gate_results, options));
    if (err.empty()) {
      std::printf("[report written to %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      io_ok = false;
    }
  }
  if (options.timeline_window > 0) {
    const std::string path = dir + "/" + suite.name + "_timeline.csv";
    const std::string err =
        write_text_file(path, rows_to_csv(obs::collected_timeline_rows()));
    if (err.empty()) {
      std::printf("[timeline written to %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      io_ok = false;
    }
  }
  if (!options.trace_file.empty()) {
    // A bare filename lands under --out next to the CSVs; an absolute (or
    // relative-with-directories) path is honored as given.
    const std::string path =
        options.trace_file.find('/') == std::string::npos
            ? dir + "/" + options.trace_file
            : options.trace_file;
    const std::string err = write_text_file(path, obs::collected_trace_json());
    if (err.empty()) {
      std::printf("[trace written to %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      io_ok = false;
    }
  }
  if (options.telemetry()) {
    obs::set_global_request({});  // drop the request and collected buffers
  }

  if (const u64 sim_cycles = report.total_sim_cycles(); sim_cycles > 0) {
    const double secs = report.wall_ms / 1000.0;
    std::printf("sweep '%s': %zu scenario(s), jobs=%u, wall %.0f ms, "
                "%llu sim cycles (%.2f Mcycles/s)\n",
                suite.name.c_str(), report.results.size(), report.jobs,
                report.wall_ms,
                static_cast<unsigned long long>(sim_cycles),
                secs > 0.0 ? static_cast<double>(sim_cycles) / (secs * 1e6) : 0.0);
  } else {
    std::printf("sweep '%s': %zu scenario(s), jobs=%u, wall %.0f ms\n",
                suite.name.c_str(), report.results.size(), report.jobs,
                report.wall_ms);
  }

  return (report.failures() == 0 && gates_ok && io_ok) ? 0 : 1;
}

}  // namespace mp3d::exp
