// SPDX-License-Identifier: Apache-2.0
// Windowed counter sampling: every N cycles the cluster snapshots its
// cumulative CounterSet and the timeline stores the per-window delta plus
// derived gauges (instantaneous levels like DMA backlog bytes or cores
// awake, which are not cumulative and therefore not meaningful as deltas).
//
// Export is a long-format table — one row per (window, series) — so the
// existing exp CSV writer handles it and downstream tooling can pivot
// without knowing the counter names up front.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "exp/row.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {

struct WindowSample {
  u32 index = 0;
  sim::Cycle cycle_lo = 0;  ///< first cycle covered by the window
  sim::Cycle cycle_hi = 0;  ///< last cycle covered (inclusive)
  sim::CounterSet deltas;   ///< counter increments within the window
  std::vector<std::pair<std::string, double>> gauges;  ///< levels at cycle_hi
};

class Timeline {
 public:
  explicit Timeline(u32 window_cycles);

  u32 window_cycles() const { return window_cycles_; }

  /// Close the window ending at `cycle` (inclusive): store the delta of
  /// `totals` against the previous snapshot plus the given gauges, then keep
  /// `totals` as the next window's snapshot. Windows must be sampled in
  /// increasing cycle order; the final window of a run may be partial
  /// (cycle_hi - cycle_lo + 1 < window_cycles).
  void sample(sim::Cycle cycle, sim::CounterSet totals,
              std::vector<std::pair<std::string, double>> gauges);

  const std::vector<WindowSample>& windows() const { return windows_; }

  /// First cycle the next window will cover (0 before any sample). A run
  /// ending at cycle C has an uncovered partial window iff C >= next_lo().
  sim::Cycle next_lo() const { return next_lo_; }

  /// Delta of counter `name` in window `index` (0 when absent).
  u64 delta(std::size_t index, const std::string& name) const;

  /// Forget all samples (start of a new run).
  void clear();

  /// Long-format rows: run,window,cycle_lo,cycle_hi,kind,name,value with
  /// kind "delta" for counter increments and "level" for gauges.
  std::vector<exp::Row> to_rows(const std::string& run_label) const;

 private:
  u32 window_cycles_;
  sim::Cycle next_lo_ = 0;
  sim::CounterSet prev_;
  std::vector<WindowSample> windows_;
};

}  // namespace mp3d::obs
