// SPDX-License-Identifier: Apache-2.0
// Process-global telemetry collection for the experiment engine.
//
// The suite CLI (`--timeline N`, `--trace file`) must reach Clusters that
// scenarios construct many layers down, without changing any scenario
// code. The suite installs a global request (an arch::TelemetryConfig)
// before running the sweep; every Cluster (and the standalone channel
// soak) checks it at construction, enables the requested modes, and
// deposits its results here when the run finishes. The runner labels each
// deposit with the scenario name via a thread-local, and the suite drains
// the collected timeline rows / trace fragments into files afterwards.
//
// Collection is deterministic because the suite forces --jobs 1 whenever
// a request is active: deposits arrive in scenario order. The fast path
// for the 99 % case — no request installed — is one relaxed atomic load.
#pragma once

#include <string>
#include <vector>

#include "arch/params.hpp"
#include "exp/row.hpp"

namespace mp3d::obs {

class Telemetry;

/// Install (or, with a config that turns no mode on, clear) the global
/// request. Clears everything collected so far.
void set_global_request(const arch::TelemetryConfig& request);
/// True when a request with at least one mode enabled is installed.
bool global_request_active();
/// The telemetry a run records: `local` when it turns a mode on, else the
/// installed global request (no mode on when none is active). Every
/// Cluster and the standalone channel soak resolve their config here.
arch::TelemetryConfig effective_config(const arch::TelemetryConfig& local);

/// Label deposits from the current thread (the runner sets the scenario
/// name before each run). Empty label → "run".
void set_collect_label(const std::string& label);
/// The current thread's deposit label (so a multi-cluster driver can
/// append a per-cluster suffix around each deposit and restore it).
std::string collect_label();

/// Deposit one finished run's telemetry. Timeline windows become
/// long-format rows labeled with the collect label; trace events are
/// serialized as Chrome JSON fragments under a per-run pid offset so all
/// runs share one Perfetto file. Duplicate labels get #2, #3... suffixes.
void collect_run(const Telemetry& telemetry);

/// Everything deposited since the last set_global_request.
std::vector<exp::Row> collected_timeline_rows();
/// Complete Chrome trace-event JSON for all deposited runs.
std::string collected_trace_json();

}  // namespace mp3d::obs
