// SPDX-License-Identifier: Apache-2.0
#include "obs/trace.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"

namespace mp3d::obs {

namespace {

const char* phase_code(Phase phase) {
  switch (phase) {
    case Phase::kBegin: return "B";
    case Phase::kEnd: return "E";
    case Phase::kInstant: return "i";
    case Phase::kCounter: return "C";
  }
  return "i";
}

void append_metadata(std::string& out, const Trace& trace, u32 pid_offset,
                     const std::string& process_prefix) {
  // One process_name record per distinct pid, one thread_name per track.
  // Tracks are registered in construction order, so iteration order (and
  // therefore the output bytes) is deterministic.
  std::set<u32> named_pids;
  for (const TraceTrack& track : trace.tracks()) {
    if (named_pids.insert(track.pid).second) {
      if (!out.empty()) {
        out += ',';
      }
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(track.pid + pid_offset);
      out += ",\"args\":{\"name\":";
      out += '"' + json_escape(process_prefix + track.process) + '"';
      out += "}}";
    }
    if (!out.empty()) {
      out += ',';
    }
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(track.pid + pid_offset);
    out += ",\"tid\":";
    out += std::to_string(track.tid);
    out += ",\"args\":{\"name\":";
    out += '"' + json_escape(track.thread) + '"';
    out += "}}";
  }
}

}  // namespace

Trace::Trace(u64 capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  events_.reserve(static_cast<std::size_t>(std::min<u64>(capacity_, u64{1} << 16)));
}

u32 Trace::add_track(std::string process, u32 pid, std::string thread, u32 tid) {
  tracks_.push_back(TraceTrack{std::move(process), std::move(thread), pid, tid});
  return static_cast<u32>(tracks_.size() - 1);
}

u32 Trace::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<u32>(i);
    }
  }
  names_.push_back(name);
  return static_cast<u32>(names_.size() - 1);
}

void Trace::clear_events() {
  events_.clear();
  dropped_ = 0;
}

void append_chrome_events(std::string& out, const Trace& trace, u32 pid_offset,
                          const std::string& process_prefix) {
  append_metadata(out, trace, pid_offset, process_prefix);
  for (const TraceEvent& event : trace.events()) {
    const TraceTrack& track = trace.tracks()[event.track];
    if (!out.empty()) {
      out += ',';
    }
    out += "{\"name\":";
    out += '"' + json_escape(trace.names()[event.name]) + '"';
    out += ",\"cat\":\"mp3d\",\"ph\":\"";
    out += phase_code(event.phase);
    out += "\",\"pid\":";
    out += std::to_string(track.pid + pid_offset);
    out += ",\"tid\":";
    out += std::to_string(track.tid);
    out += ",\"ts\":";
    out += std::to_string(event.cycle);
    if (event.phase == Phase::kInstant) {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{\"value\":";
    out += std::to_string(event.arg);
    out += "}}";
  }
}

std::string to_chrome_json(const Trace& trace) {
  std::string events;
  append_chrome_events(events, trace, 0, "");
  std::string out = "{\"traceEvents\":[";
  out += events;
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"cycles\",\"dropped\":";
  out += std::to_string(trace.dropped());
  out += "}}\n";
  return out;
}

}  // namespace mp3d::obs
