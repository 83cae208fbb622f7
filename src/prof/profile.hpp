// SPDX-License-Identifier: Apache-2.0
// Host-side self-profiling of the simulator's per-cycle hot path: the
// src/obs telemetry subsystem observes the *simulated* machine; this is
// its host-side twin, answering "where does Cluster::step's wall clock
// go?" without perturbing the simulation.
//
// Every `stride`-th simulated cycle the cluster times its step phase by
// phase — one monotonic-clock read per phase boundary — and accumulates
// the nanoseconds per prof::Phase. The sampled sums extrapolate (x stride)
// into a component breakdown of total step time; because the marks tile
// the step contiguously, the breakdown covers the measured step time up
// to the few instructions around the timer itself (the sim_speed bench
// gates coverage >= 90 %). When a cluster's group sections run side by
// side on host threads, each section is timed on its own thread and the
// section phases (NoC, banks, cores) add up the threads' time, so they
// can exceed the step's wall time.
//
// Zero-cost-when-disabled, in the style of src/obs: the cluster compares
// the cycle against a deadline parked at "never" and passes a null
// profiler to the StepTimer, whose marks reduce to dead null checks.
// Profiling reads clocks and writes host memory only — simulation
// counters, results and CSVs are bit-identical with it on or off.
#pragma once

#include <array>
#include <chrono>
#include <string>

#include "arch/params.hpp"
#include "common/units.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::prof {

/// The phases of Cluster::step, in execution order. kIcache is the refill
/// completion handling (lookups happen inside the cores' fetch stage and
/// land in kCores); kNoc accumulates the request and response networks.
enum class Phase : u8 {
  kGmem,
  kIcache,
  kDma,
  kQos,
  kNoc,
  kBanks,
  kCtrl,
  kCores,
  kTelemetry,
  kCount
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

const char* phase_name(Phase phase);

/// Monotonic host clock in nanoseconds.
inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A finished profile: sampled per-phase nanoseconds plus enough context
/// to extrapolate them over the whole run.
struct ProfileReport {
  u32 stride = 1;           ///< cycles between samples
  u64 total_cycles = 0;     ///< simulated cycles the profiled run advanced
  u64 sampled_cycles = 0;   ///< cycles actually timed
  u64 step_ns = 0;          ///< whole-step host ns summed over sampled cycles
  std::array<u64, kNumPhases> phase_ns{};  ///< per-phase ns, sampled cycles

  u64 phases_total_ns() const;
  /// This phase's share of the attributed time (0 when nothing sampled).
  double phase_frac(Phase phase) const;
  /// Attributed / measured step time on the sampled cycles. The marks
  /// tile the step, so anything below ~1.0 is timer overhead or a lost
  /// mark; the sim_speed bench gates >= 0.9.
  double coverage() const;
  /// Extrapolated host milliseconds spent inside Cluster::step.
  double est_step_ms() const;
};

/// Accumulates sampled phase times for one cluster. The cluster owns one
/// of these only when ProfilingConfig::stride > 0.
class StepProfiler {
 public:
  explicit StepProfiler(const arch::ProfilingConfig& config);

  u32 stride() const { return config_.stride; }

  void add(Phase phase, u64 ns) {
    cycle_phase_ns_[static_cast<std::size_t>(phase)] += ns;
  }
  /// Close one sampled cycle: records the whole-step time and, when a
  /// trace is attached (ProfilingConfig::trace_counters), mirrors the
  /// cycle's per-phase nanoseconds onto `host.*` counter tracks.
  void finish_cycle(u64 step_ns, sim::Cycle cycle);

  /// Stamp the run length (called by the cluster when a run finishes, so
  /// report() can extrapolate sampled time over all cycles).
  void note_total_cycles(u64 cycles) { total_cycles_ = cycles; }

  /// Attach the event trace the counter series is mirrored onto.
  void set_trace(obs::Trace* trace, u32 track);

  /// Per-run reset (load_program): drop samples, keep wiring.
  void reset();

  ProfileReport report() const;

 private:
  arch::ProfilingConfig config_;
  std::array<u64, kNumPhases> phase_ns_{};
  std::array<u64, kNumPhases> cycle_phase_ns_{};  ///< current sampled cycle
  u64 step_ns_ = 0;
  u64 sampled_cycles_ = 0;
  u64 total_cycles_ = 0;
  obs::Trace* trace_ = nullptr;
  u32 trace_track_ = 0;
  std::array<u32, kNumPhases> trace_names_{};
  u32 trace_step_name_ = 0;
};

/// Scoped per-cycle timer the cluster stacks up in step(). Constructed
/// with null on unsampled cycles, where every call collapses to a null
/// check. On sampled cycles each mark() attributes the time since the
/// previous boundary to `phase`.
class StepTimer {
 public:
  explicit StepTimer(StepProfiler* profiler) : profiler_(profiler) {
    if (profiler_ != nullptr) {
      start_ = last_ = now_ns();
    }
  }

  void mark(Phase phase) {
    if (profiler_ != nullptr) {
      const u64 t = now_ns();
      profiler_->add(phase, t - last_);
      last_ = t;
    }
  }

  /// Start the next interval here without attributing the time since the
  /// last mark (it was timed elsewhere, by SectionTimers).
  void skip() {
    if (profiler_ != nullptr) {
      last_ = now_ns();
    }
  }

  /// End the sampled cycle (idempotent; also run by the destructor so an
  /// early return cannot lose the sample).
  void finish(sim::Cycle cycle) {
    if (profiler_ != nullptr) {
      profiler_->finish_cycle(now_ns() - start_, cycle);
      profiler_ = nullptr;
    }
  }

  ~StepTimer() { finish(0); }

  StepTimer(const StepTimer&) = delete;
  StepTimer& operator=(const StepTimer&) = delete;

 private:
  StepProfiler* profiler_;
  u64 start_ = 0;
  u64 last_ = 0;
};

/// Times one group section of a sampled cycle on whichever host thread
/// runs it: each mark() adds the time since the previous one to `ns`,
/// which the cluster adds into its profiler after the join. Null on
/// unsampled cycles, where every mark is a null check.
class SectionTimer {
 public:
  explicit SectionTimer(std::array<u64, kNumPhases>* ns) : ns_(ns) {
    if (ns_ != nullptr) {
      last_ = now_ns();
    }
  }

  void mark(Phase phase) {
    if (ns_ != nullptr) {
      const u64 t = now_ns();
      (*ns_)[static_cast<std::size_t>(phase)] += t - last_;
      last_ = t;
    }
  }

 private:
  std::array<u64, kNumPhases>* ns_;
  u64 last_ = 0;
};

}  // namespace mp3d::prof
