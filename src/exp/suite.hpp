// SPDX-License-Identifier: Apache-2.0
// Suite: the one CLI frontend every bench/example shares. A bench becomes
// a suite factory — register scenarios (directly or through a SweepGrid),
// optionally a finalize hook (derive cross-scenario columns after the
// sweep), a report hook (the human-readable paper-style tables) and gates
// (named acceptance checks over the whole sweep) — and `suite_main` does
// the rest:
//
//   bench --list                 enumerate scenarios
//   bench --filter SUBSTR        run the matching subset (repeatable)
//   bench --jobs N               worker threads (default: all host cores)
//   bench --csv / --json         output formats (default: CSV)
//   bench --out DIR              output directory (default: $MP3D_BENCH_OUT
//                                or the binary's directory)
//   bench --smoke                reduced workloads, same gates
//   bench --progress             per-scenario progress on stderr
//   bench --timeline CYCLES      sample windowed counter timelines every
//                                CYCLES cycles -> <suite>_timeline.csv
//   bench --trace FILE           structured event trace (Chrome trace JSON,
//                                Perfetto-loadable) -> FILE under --out
//
// Output files are `<suite name>.csv` / `<suite name>.json`; the directory
// is created on demand and any write failure is a hard error (nonzero
// exit), so CI can never pass on empty artifacts. CSV bytes are identical
// for any --jobs value. Telemetry (--timeline/--trace) forces --jobs 1 so
// run labels and trace track ids are deterministic.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"

namespace mp3d::exp {

struct CliOptions {
  bool list = false;
  std::vector<std::string> filters;
  u32 jobs = 0;  ///< 0 = default_jobs()
  bool csv = true;
  bool json = false;
  std::string out_dir;  ///< empty = $MP3D_BENCH_OUT or the binary's directory
  bool smoke = false;
  bool progress = false;
  u64 timeline_window = 0;  ///< --timeline: sampling window [cycles], 0 = off
  std::string trace_file;   ///< --trace: event-trace JSON filename, "" = off
  std::vector<std::string> extras;  ///< suite-specific flags that were set

  bool extra(const std::string& flag) const;
  bool telemetry() const { return timeline_window > 0 || !trace_file.empty(); }
};

struct Suite {
  std::string name;   ///< output file stem, e.g. "fig8_energy"
  std::string title;  ///< printed above the report
  Registry registry;

  /// Post-sweep, single-threaded: derive cross-scenario columns/metrics.
  /// Runs on filtered sweeps too — guard against missing scenarios.
  std::function<void(SweepReport&)> finalize;
  /// Human-readable report; the default prints one table of all rows.
  std::function<void(const SweepReport&)> report;

  /// Named acceptance check; returns "" on pass, an explanation on
  /// failure. Gates run only on unfiltered sweeps.
  void gate(std::string name, std::function<std::string(const SweepReport&)> check);

  std::vector<std::pair<std::string, std::function<std::string(const SweepReport&)>>>
      gates;
};

/// Parse argv. Returns "" on success or an error message; `extra_flags`
/// lists additional boolean flags the suite understands (e.g. "--measure").
std::string parse_cli(int argc, char** argv, CliOptions& options,
                      const std::vector<std::string>& extra_flags);

/// The whole frontend: parse, build the suite, list/filter/run, finalize,
/// report, gates, outputs. Returns the process exit code.
int suite_main(int argc, char** argv,
               const std::function<Suite(const CliOptions&)>& make_suite,
               const std::vector<std::string>& extra_flags = {});

/// Resolved output directory: `cli_out` if nonempty, else $MP3D_BENCH_OUT,
/// else the running binary's directory (never the source tree), else ".".
std::string out_dir(const std::string& cli_out = {});

/// Write `content` to `path`, creating parent directories. Returns "" on
/// success or an error message.
std::string write_text_file(const std::string& path, const std::string& content);

/// Serialize a finished sweep as a JSON report (scenarios, rows, metrics,
/// gate verdicts, timings).
std::string report_to_json(const Suite& suite, const SweepReport& report,
                           const std::vector<std::pair<std::string, std::string>>&
                               gate_results,
                           const CliOptions& options);

}  // namespace mp3d::exp
