// SPDX-License-Identifier: Apache-2.0
#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/collector.hpp"

namespace mp3d::exp {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

std::optional<double> SweepReport::metric(const std::string& name,
                                          const std::string& key) const {
  const ScenarioResult* r = find(name);
  if (r == nullptr || !r->ok()) {
    return std::nullopt;
  }
  for (const auto& [k, v] : r->output.metrics) {
    if (k == key) {
      return v;
    }
  }
  return std::nullopt;
}

const ScenarioResult* SweepReport::find(const std::string& name) const {
  for (const ScenarioResult& r : results) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

std::vector<Row> SweepReport::rows() const {
  std::vector<Row> out;
  for (const ScenarioResult& r : results) {
    out.insert(out.end(), r.output.rows.begin(), r.output.rows.end());
  }
  return out;
}

std::size_t SweepReport::failures() const {
  std::size_t n = 0;
  for (const ScenarioResult& r : results) {
    n += r.ok() ? 0 : 1;
  }
  return n;
}

std::size_t SweepReport::successes() const {
  return results.size() - failures();
}

u64 SweepReport::total_sim_cycles() const {
  u64 total = 0;
  for (const ScenarioResult& r : results) {
    if (r.ok()) {
      total += r.output.sim_cycles;
    }
  }
  return total;
}

double ScenarioResult::mcycles_per_sec() const {
  if (output.sim_cycles == 0 || !(wall_ms > 0.0)) {
    return 0.0;
  }
  return static_cast<double>(output.sim_cycles) / (wall_ms * 1e3);
}

u32 default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<u32>(hw);
}

SweepReport run_sweep(const std::vector<Scenario>& scenarios,
                      const RunnerOptions& options) {
  SweepReport report;
  report.jobs = options.jobs < 1 ? 1 : options.jobs;
  report.results.resize(scenarios.size());
  const auto sweep_start = Clock::now();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= scenarios.size()) {
        return;
      }
      const Scenario& scenario = scenarios[i];
      ScenarioResult& result = report.results[i];
      result.name = scenario.name;
      result.description = scenario.description;
      const auto start = Clock::now();
      if (obs::global_request_active()) {
        // Label this thread's telemetry deposits with the scenario name.
        obs::set_collect_label(scenario.name);
      }
      try {
        result.output = scenario.run();
      } catch (const std::exception& e) {
        result.error = e.what();
      } catch (...) {
        result.error = "unknown exception";
      }
      result.wall_ms = ms_since(start);
      const std::size_t finished = done.fetch_add(1) + 1;
      if (options.progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        std::fprintf(stderr, "[%zu/%zu] %s (%.0f ms)%s\n", finished,
                     scenarios.size(), scenario.name.c_str(), result.wall_ms,
                     result.ok() ? "" : " FAILED");
      }
    }
  };

  const std::size_t pool =
      std::min<std::size_t>(report.jobs, scenarios.empty() ? 1 : scenarios.size());
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      threads.emplace_back(worker);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  report.wall_ms = ms_since(sweep_start);
  return report;
}

}  // namespace mp3d::exp
