// SPDX-License-Identifier: Apache-2.0
// Regenerates Figure 6: matmul cycle-count speedup vs SPM capacity as a
// function of the off-chip memory bandwidth (M = 326400, t chosen to fill
// each capacity), relative to 1 MiB @ 4 B/cycle. Per-step (vs half
// capacity) speedups are compared against the paper's annotations.
//
// One scenario per (bandwidth, capacity) grid point through the
// experiment engine; cross-point speedups (vs the baseline point and vs
// the half-capacity point at the same bandwidth) are derived in the
// suite's finalize hook from the per-scenario cycle metrics.
//
// Pass --measure to re-run the cycle-accurate calibration on the 256-core
// simulator (slow, tens of seconds per capacity); the calibration depends
// only on the tile dim, so it is memoized across the five bandwidth points
// that share a capacity — 4 calibrations serve the 20-point grid, and
// --jobs still parallelizes the distinct capacities. The default uses the
// pre-measured values recorded in model/calibration.cpp.
#include <map>
#include <mutex>

#include "bench_util.hpp"
#include "exp/suite.hpp"
#include "kernels/matmul.hpp"
#include "model/calibration.hpp"
#include "model/matmul_model.hpp"
#include "phys/paper_ref.hpp"

using namespace mp3d;

namespace {

constexpr u64 kPaperM = 326400;

std::string point_name(double bw, u64 capacity) {
  return "bw=" + fmt_fixed(bw, 0) + "/cap=" + std::to_string(capacity / MiB(1)) +
         "MiB";
}

/// Cycle-accurate calibration, memoized per capacity: the measurement is
/// deterministic and depends only on the tile dim, so the five bandwidth
/// scenarios sharing a capacity reuse one simulator run. Mutex-guarded —
/// this is the one piece of cross-scenario state in the suite, and it is
/// a pure cache of a deterministic value.
model::MatmulCalibration measured_calibration(u64 capacity, u32 t) {
  static std::mutex mutex;
  static std::map<u64, model::MatmulCalibration> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = cache.find(capacity);
  if (it != cache.end()) {
    return it->second;
  }
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(capacity);
  cfg.gmem_size = MiB(64);
  const model::MatmulCalibration cal = model::calibrate_matmul(cfg, t);
  cache.emplace(capacity, cal);
  return cal;
}

exp::Scenario make_point(double bw, u64 capacity, bool measure) {
  exp::Scenario s;
  s.name = point_name(bw, capacity);
  s.description = "matmul cycle model at " + bench::cap_name(capacity) + ", " +
                  fmt_fixed(bw, 0) + " B/cycle off-chip";
  s.run = [bw, capacity, measure]() {
    const u32 t = kernels::MatmulParams::paper_tile_dim(capacity);
    model::MatmulCalibration cal;
    if (measure) {
      cal = measured_calibration(capacity, t);
    } else {
      cal = model::default_calibration(t);
    }
    model::MatmulWorkload w;
    w.m = kPaperM;
    w.t = t;
    w.bw_bytes_per_cycle = bw;
    const model::CycleBreakdown cycles = model::matmul_cycles(w, cal);

    exp::ScenarioOutput out;
    out.metric("bw", bw)
        .metric("capacity_mib", static_cast<double>(capacity / MiB(1)))
        .metric("t", t)
        .metric("cycles", cycles.total());
    exp::Row row;
    row.cell("bw", fmt_fixed(bw, 0))
        .cell("capacity_mib", capacity / MiB(1))
        .cell("t", static_cast<u64>(t))
        .cell("cycles", fmt_fixed(cycles.total(), 0));
    out.row(std::move(row));
    return out;
  };
  return s;
}

exp::Suite make_suite(const exp::CliOptions& opt) {
  const std::vector<double> bandwidths = {4, 8, 16, 32, 64};
  const std::vector<u64> capacities = {MiB(1), MiB(2), MiB(4), MiB(8)};

  exp::Suite suite;
  suite.name = "fig6_cycle_speedup";
  suite.title = "Figure 6 - cycle-count speedup vs 1 MiB @ 4 B/cycle (model)";
  const bool measure = opt.extra("--measure");
  for (const double bw : bandwidths) {
    for (const u64 cap : capacities) {
      suite.registry.add(make_point(bw, cap, measure));
    }
  }

  // Speedups are ratios between grid points, so they live in finalize.
  suite.finalize = [capacities](exp::SweepReport& report) {
    const auto base = report.metric(point_name(4, MiB(1)), "cycles");
    for (exp::ScenarioResult& r : report.results) {
      const auto bw = report.metric(r.name, "bw");
      const auto cap = report.metric(r.name, "capacity_mib");
      const auto cycles = report.metric(r.name, "cycles");
      if (!bw || !cap || !cycles || r.output.rows.empty()) {
        continue;
      }
      exp::Row& row = r.output.rows[0];
      if (base) {
        row.cell("speedup_vs_baseline", *base / *cycles - 1.0, 4);
      }
      const u64 half = MiB(static_cast<u64>(*cap)) / 2;
      const auto half_cycles = report.metric(point_name(*bw, half), "cycles");
      if (half_cycles) {
        row.cell("speedup_vs_half", *half_cycles / *cycles - 1.0, 4);
      }
    }
  };

  suite.report = [bandwidths, capacities](const exp::SweepReport& report) {
    Table table("Figure 6 - cycle-count speedup vs 1 MiB @ 4 B/cycle (model)");
    table.header({"BW [B/cyc]", "1 MiB", "2 MiB", "4 MiB", "8 MiB",
                  "step 2MiB (paper)", "step 4MiB (paper)", "step 8MiB (paper)"});
    for (const double bw : bandwidths) {
      std::vector<std::string> cells{fmt_fixed(bw, 0)};
      std::vector<std::string> steps;
      for (const u64 cap : capacities) {
        const exp::ScenarioResult* r = report.find(point_name(bw, cap));
        if (r == nullptr || r->output.rows.empty()) {
          continue;
        }
        // Derived columns are absent when a filtered run dropped the
        // reference point they are computed against.
        const exp::Row& row = r->output.rows[0];
        const std::string& vs_base = row.get("speedup_vs_baseline");
        cells.push_back(vs_base.empty() ? "-" : fmt_pct(std::stod(vs_base)));
        if (cap != MiB(1)) {
          const std::string& vs_half = row.get("speedup_vs_half");
          std::string s = vs_half.empty() ? "-" : fmt_pct(std::stod(vs_half));
          for (const auto& ref : phys::paper::figure6()) {
            if (ref.bw == bw && ref.capacity == cap) {
              s += " (" + fmt_pct(ref.speedup_vs_half) + ")";
            }
          }
          steps.push_back(s);
        }
      }
      cells.insert(cells.end(), steps.begin(), steps.end());
      table.row(std::move(cells));
    }
    std::printf("%s\n", table.to_string().c_str());

    // Headline claims: 8 MiB over 1 MiB at the same bandwidth.
    const auto total = [&](double bw) {
      const auto c1 = report.metric(point_name(bw, MiB(1)), "cycles");
      const auto c8 = report.metric(point_name(bw, MiB(8)), "cycles");
      return (c1 && c8) ? *c1 / *c8 - 1.0 : 0.0;
    };
    std::printf("8 MiB over 1 MiB at same bandwidth: %s @4 B/c (paper +43 %%), "
                "%s @16 B/c (paper +16 %%), %s @64 B/c (paper +8 %%)\n\n",
                fmt_pct(total(4)).c_str(), fmt_pct(total(16)).c_str(),
                fmt_pct(total(64)).c_str());
  };

  suite.gate("capacity monotonicity", [bandwidths, capacities](
                                          const exp::SweepReport& report) {
    // Bigger SPM never costs cycles at the same bandwidth.
    for (const double bw : bandwidths) {
      double prev = 0.0;
      for (const u64 cap : capacities) {
        const auto cycles = report.metric(point_name(bw, cap), "cycles");
        if (!cycles) {
          return point_name(bw, cap) + " did not run";
        }
        if (prev != 0.0 && *cycles > prev) {
          return point_name(bw, cap) + ": more cycles than half capacity";
        }
        prev = *cycles;
      }
    }
    return std::string();
  });
  return suite;
}

}  // namespace

int main(int argc, char** argv) {
  return exp::suite_main(argc, argv, make_suite, {"--measure"});
}
