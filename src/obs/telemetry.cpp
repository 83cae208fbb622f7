// SPDX-License-Identifier: Apache-2.0
#include "obs/telemetry.hpp"

namespace mp3d::obs {

Telemetry::Telemetry(const arch::TelemetryConfig& config) : config_(config) {
  if (config_.trace) {
    trace_ = std::make_unique<Trace>(kTraceCapacity);
  }
  if (config_.sample_window > 0) {
    timeline_ = std::make_unique<Timeline>(config_.sample_window);
  }
}

Telemetry::Telemetry(const Telemetry& other) : config_(other.config_) {
  if (other.trace_) {
    trace_ = std::make_unique<Trace>(*other.trace_);
  }
  if (other.timeline_) {
    timeline_ = std::make_unique<Timeline>(*other.timeline_);
  }
}

void Telemetry::reset() {
  if (trace_) {
    trace_->clear_events();
  }
  if (timeline_) {
    timeline_->clear();
  }
}

}  // namespace mp3d::obs
