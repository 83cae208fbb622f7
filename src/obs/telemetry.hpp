// SPDX-License-Identifier: Apache-2.0
// Per-cluster telemetry facade: owns the optional event Trace and windowed
// Timeline selected by arch::TelemetryConfig. The cluster holds one of
// these only when telemetry is enabled, so the disabled path costs a null
// check at most.
#pragma once

#include <memory>

#include "arch/params.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace mp3d::obs {

/// Event buffer bound of a run's trace; events past it are dropped and
/// counted (Trace::dropped).
inline constexpr u64 kTraceCapacity = u64{1} << 20;

class Telemetry {
 public:
  explicit Telemetry(const arch::TelemetryConfig& config);
  /// A deep copy: the copy's trace and timeline are its own.
  Telemetry(const Telemetry& other);
  Telemetry& operator=(const Telemetry&) = delete;

  const arch::TelemetryConfig& config() const { return config_; }

  Trace* trace() { return trace_.get(); }
  const Trace* trace() const { return trace_.get(); }
  Timeline* timeline() { return timeline_.get(); }
  const Timeline* timeline() const { return timeline_.get(); }

  /// Per-run reset: drop buffered events and window samples. Track and
  /// name registrations survive (they describe the cluster, not the run).
  void reset();

 private:
  arch::TelemetryConfig config_;
  std::unique_ptr<Trace> trace_;
  std::unique_ptr<Timeline> timeline_;
};

}  // namespace mp3d::obs
