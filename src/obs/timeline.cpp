// SPDX-License-Identifier: Apache-2.0
#include "obs/timeline.hpp"

#include "common/assert.hpp"

namespace mp3d::obs {

Timeline::Timeline(u32 window_cycles) : window_cycles_(window_cycles) {
  MP3D_CHECK(window_cycles_ > 0, "timeline window must be nonzero");
  windows_.reserve(1024);
}

void Timeline::sample(sim::Cycle cycle, sim::CounterSet totals,
                      std::vector<std::pair<std::string, double>> gauges) {
  MP3D_CHECK(cycle >= next_lo_, "timeline samples must advance in cycle order");
  WindowSample w;
  w.index = static_cast<u32>(windows_.size());
  w.cycle_lo = next_lo_;
  w.cycle_hi = cycle;
  w.deltas = totals.delta_from(prev_);
  w.gauges = std::move(gauges);
  windows_.push_back(std::move(w));
  prev_ = std::move(totals);
  next_lo_ = cycle + 1;
}

u64 Timeline::delta(std::size_t index, const std::string& name) const {
  return index < windows_.size() ? windows_[index].deltas.get(name) : 0;
}

void Timeline::clear() {
  windows_.clear();
  prev_.reset();
  next_lo_ = 0;
}

std::vector<exp::Row> Timeline::to_rows(const std::string& run_label) const {
  std::vector<exp::Row> rows;
  for (const WindowSample& w : windows_) {
    for (const auto& [name, value] : w.deltas.all()) {
      exp::Row row;
      row.cell("run", run_label)
          .cell("window", static_cast<u64>(w.index))
          .cell("cycle_lo", w.cycle_lo)
          .cell("cycle_hi", w.cycle_hi)
          .cell("kind", "delta")
          .cell("name", name)
          .cell("value", value);
      rows.push_back(std::move(row));
    }
    for (const auto& [name, value] : w.gauges) {
      exp::Row row;
      row.cell("run", run_label)
          .cell("window", static_cast<u64>(w.index))
          .cell("cycle_lo", w.cycle_lo)
          .cell("cycle_hi", w.cycle_hi)
          .cell("kind", "level")
          .cell("name", name)
          .cell("value", value, 6);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace mp3d::obs
