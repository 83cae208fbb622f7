// SPDX-License-Identifier: Apache-2.0
#include "obs/collector.hpp"

#include <atomic>
#include <iterator>
#include <map>
#include <mutex>

#include "obs/telemetry.hpp"

namespace mp3d::obs {

namespace {

// pid values inside one run stay well below this; offsetting each run by
// a stride keeps every run's processes distinct in the merged trace.
constexpr u32 kPidStride = 1000;

std::atomic<bool> g_active{false};
std::mutex g_mutex;
arch::TelemetryConfig g_request;            // guarded by g_mutex
std::vector<exp::Row> g_timeline_rows;      // guarded by g_mutex
std::string g_trace_events;                 // guarded by g_mutex
u64 g_trace_dropped = 0;                    // guarded by g_mutex
u32 g_runs_collected = 0;                   // guarded by g_mutex
std::map<std::string, u32> g_label_counts;  // guarded by g_mutex

thread_local std::string t_label;

}  // namespace

void set_global_request(const arch::TelemetryConfig& request) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_request = request;
  g_timeline_rows.clear();
  g_trace_events.clear();
  g_trace_dropped = 0;
  g_runs_collected = 0;
  g_label_counts.clear();
  g_active.store(request.enabled(), std::memory_order_release);
}

bool global_request_active() { return g_active.load(std::memory_order_relaxed); }

arch::TelemetryConfig effective_config(const arch::TelemetryConfig& local) {
  if (local.enabled() || !global_request_active()) {
    return local;
  }
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_request;
}

void set_collect_label(const std::string& label) { t_label = label; }

std::string collect_label() { return t_label; }

void collect_run(const Telemetry& telemetry) {
  if (!global_request_active()) {
    return;
  }
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::string label = t_label.empty() ? "run" : t_label;
  const u32 nth = ++g_label_counts[label];
  if (nth > 1) {
    label += '#';
    label += std::to_string(nth);
  }
  if (telemetry.timeline() != nullptr) {
    std::vector<exp::Row> rows = telemetry.timeline()->to_rows(label);
    g_timeline_rows.insert(g_timeline_rows.end(),
                           std::make_move_iterator(rows.begin()),
                           std::make_move_iterator(rows.end()));
  }
  if (telemetry.trace() != nullptr) {
    append_chrome_events(g_trace_events, *telemetry.trace(),
                         g_runs_collected * kPidStride, label + "/");
    g_trace_dropped += telemetry.trace()->dropped();
  }
  ++g_runs_collected;
}

std::vector<exp::Row> collected_timeline_rows() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_timeline_rows;
}

std::string collected_trace_json() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::string out = "{\"traceEvents\":[";
  out += g_trace_events;
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"cycles\",\"dropped\":";
  out += std::to_string(g_trace_dropped);
  out += "}}\n";
  return out;
}

}  // namespace mp3d::obs
