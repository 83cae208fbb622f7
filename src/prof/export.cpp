// SPDX-License-Identifier: Apache-2.0
#include "prof/export.hpp"

#include "common/strings.hpp"

namespace mp3d::prof {

std::string to_collapsed(const ProfileReport& report) {
  std::string out;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (report.phase_ns[p] == 0) {
      continue;
    }
    out += "Cluster::step;";
    out += phase_name(static_cast<Phase>(p));
    out += ' ';
    out += std::to_string(report.phase_ns[p]);
    out += '\n';
  }
  // Residual step time the phase marks did not attribute (timer overhead);
  // kept so the folded totals sum to the measured step time.
  const u64 attributed = report.phases_total_ns();
  if (report.step_ns > attributed) {
    out += "Cluster::step;(unattributed) ";
    out += std::to_string(report.step_ns - attributed);
    out += '\n';
  }
  return out;
}

std::string to_speedscope(const ProfileReport& report, const std::string& name) {
  // One sample per phase whose weight is that phase's sampled nanoseconds:
  // speedscope's "sampled" type renders this as the phase breakdown.
  std::string frames;
  std::string samples;
  std::string weights;
  u64 end = 0;
  std::size_t index = 0;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (report.phase_ns[p] == 0) {
      continue;
    }
    if (!frames.empty()) {
      frames += ',';
      samples += ',';
      weights += ',';
    }
    frames += "{\"name\":\"";
    frames += json_escape(std::string("Cluster::step ") +
                               phase_name(static_cast<Phase>(p)));
    frames += "\"}";
    samples += '[';
    samples += std::to_string(index);
    samples += ']';
    weights += std::to_string(report.phase_ns[p]);
    end += report.phase_ns[p];
    ++index;
  }
  std::string out = "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",";
  out += "\"name\":\"" + json_escape(name) + "\",";
  out += "\"activeProfileIndex\":0,";
  out += "\"exporter\":\"mp3d-prof\",";
  out += "\"shared\":{\"frames\":[" + frames + "]},";
  out += "\"profiles\":[{\"type\":\"sampled\",";
  out += "\"name\":\"" + json_escape(name) + "\",";
  out += "\"unit\":\"nanoseconds\",";
  out += "\"startValue\":0,";
  out += "\"endValue\":" + std::to_string(end) + ",";
  out += "\"samples\":[" + samples + "],";
  out += "\"weights\":[" + weights + "]}]}\n";
  return out;
}

}  // namespace mp3d::prof
