// SPDX-License-Identifier: Apache-2.0
// SweepRunner: farms independent scenarios out to a std::thread pool.
// Simulations share nothing, so a sweep scales ~linearly with host cores.
// Each of the P workers gets 1/P of the caller's host-thread budget
// (sim/fork_join.hpp) for the clusters it steps.
// Results land in a pre-sized slot per scenario, so reporting order — and
// therefore every CSV byte — is identical regardless of the thread count.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace mp3d::exp {

struct ScenarioResult {
  std::string name;
  std::string description;
  ScenarioOutput output;
  std::string error;   ///< nonempty when run() threw; output is then empty
  double wall_ms = 0;  ///< this scenario's own wall clock

  bool ok() const { return error.empty(); }
  /// Simulated Mcycles per host second (0 when no sim work was credited).
  double mcycles_per_sec() const;
};

struct SweepReport {
  std::vector<ScenarioResult> results;  ///< registration order
  u32 jobs = 1;
  double wall_ms = 0;  ///< whole-sweep wall clock

  /// Metric `key` of scenario `name`, if that scenario ran and set it.
  std::optional<double> metric(const std::string& name,
                               const std::string& key) const;
  const ScenarioResult* find(const std::string& name) const;

  /// All result rows in scenario order.
  std::vector<Row> rows() const;
  std::size_t failures() const;
  std::size_t successes() const;
  /// Simulated cycles summed over successful scenarios.
  u64 total_sim_cycles() const;
};

struct RunnerOptions {
  u32 jobs = 1;           ///< worker threads (values < 1 are clamped to 1)
  bool progress = false;  ///< print a line to stderr as scenarios finish
};

/// Run all scenarios and collect results in registration order.
SweepReport run_sweep(const std::vector<Scenario>& scenarios,
                      const RunnerOptions& options);

/// Default worker count: the CPUs the process may run on
/// (sim::affinity_cpu_count(), what `nproc` prints).
u32 default_jobs();

}  // namespace mp3d::exp
