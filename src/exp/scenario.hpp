// SPDX-License-Identifier: Apache-2.0
// Scenario: one named, self-describing experiment — typically a cluster
// shape x kernel builder x workload scaled to capacity x operating point.
// A scenario's run() is completely self-contained (it builds its own
// cluster, simulator, models, ...), shares no mutable state with any other
// scenario, and is therefore safe to farm out to a worker thread.
//
// The Registry holds a suite's scenarios under unique names, preserving
// registration order — the order results are reported in, regardless of
// which threads ran what.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/row.hpp"

namespace mp3d::exp {

/// What one scenario produces: result rows (CSV/report cells, already
/// formatted) plus named numeric metrics for gates and derived columns.
///
/// sim_cycles credits the scenario with the simulated work it performed;
/// the suite divides it by the scenario's measured wall clock into
/// Mcycles/s for the JSON report and summary line. It is deterministic (it
/// never feeds the CSV rows, which must stay byte-identical across hosts
/// and --jobs values).
struct ScenarioOutput {
  std::vector<Row> rows;
  std::vector<std::pair<std::string, double>> metrics;
  u64 sim_cycles = 0;  ///< simulated cycles this scenario advanced

  ScenarioOutput& row(Row r) {
    rows.push_back(std::move(r));
    return *this;
  }
  ScenarioOutput& metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
    return *this;
  }
  /// Credit simulated work (cumulative across calls).
  ScenarioOutput& sim(u64 cycles) {
    sim_cycles += cycles;
    return *this;
  }
};

struct Scenario {
  std::string name;         ///< unique within the suite, e.g. "fig8/4MiB"
  std::string description;  ///< one line for --list
  std::function<ScenarioOutput()> run;
};

class Registry {
 public:
  /// Register a scenario. Throws std::invalid_argument on a duplicate or
  /// empty name.
  void add(Scenario scenario);
  void add(std::string name, std::string description,
           std::function<ScenarioOutput()> run);

  const std::vector<Scenario>& scenarios() const { return scenarios_; }
  bool contains(const std::string& name) const;

  /// Scenarios whose name contains any of `filters` (all scenarios when
  /// `filters` is empty), in registration order.
  std::vector<Scenario> match(const std::vector<std::string>& filters) const;

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace mp3d::exp
