// SPDX-License-Identifier: Apache-2.0
// The simulator's one run loop. A Cluster and a multi-cluster System are
// both driven by sim::drive, which owns the clock loop, the idle-cycle
// fast-forward jump and the deadlock watchdog. The model supplies plain
// (statically dispatched) hooks:
//
//   now()             the current cycle;
//   step()            advance one cycle through the model's phase order;
//   done()            the run reached its natural end;
//   activity()        progress witness: changes whenever observable work
//                     happens;
//   may_skip()        fast-forward is on and every stepping part is
//                     quiescent, so a jump may be attempted;
//   next_wake(bound)  the wake oracle: the earliest cycle (capped at
//                     `bound`) at which pending work can wake the model.
//                     A result <= now() + 1 means the next cycle is pinned;
//                     kNever means nothing is in flight;
//   horizon()         boundaries that must land exactly but wake nothing
//                     (telemetry samples, profiler strides, qos windows);
//                     kNever when there are none;
//   skip_to(target)   jump the clock to exactly target - 1, leaving every
//                     observable as if each skipped cycle had ticked. The
//                     jump may itself do work on the way (a Cluster
//                     advances its gmem channel and DMA engines through a
//                     bulk streaming span, one call per run of cycles that
//                     repeat one grant pattern), but none of the events
//                     next_wake bounds: no core wakes inside it. Returns
//                     the last skipped cycle that advanced activity(), or
//                     0 if none did.
//
// A jump lands one cycle before the earliest of next_wake, horizon,
// max_cycles and the watchdog deadline, so that cycle itself runs through
// the normal phase order and every observable matches a ticked run. The
// watchdog takes its last-progress cycle from skip_to's answer, so a
// deadlock verdict lands on the ticked run's cycle too. It consults
// next_wake only: a horizon is not work, so telemetry or profiling never
// hides a hang.
#pragma once

#include <algorithm>

#include "sim/types.hpp"

namespace mp3d::sim {

/// No activity for this many cycles, with next_wake reporting kNever, is a
/// deadlock verdict.
inline constexpr u64 kDeadlockWindow = 20000;

enum class RunEnd : u8 { kDone, kDeadlock, kMaxCycles };

template <typename Model>
RunEnd drive(Model& model, u64 max_cycles) {
  u64 last_activity = model.activity();
  Cycle last_activity_cycle = model.now();
  while (model.now() < max_cycles) {
    if (model.may_skip()) {
      const Cycle floor = model.now() + 1;
      Cycle target = model.next_wake(
          std::min<Cycle>(max_cycles, last_activity_cycle + kDeadlockWindow));
      if (target > floor) {
        target = std::min(target, model.horizon());
        if (target > floor) {
          if (const Cycle active_at = model.skip_to(target); active_at != 0) {
            last_activity = model.activity();
            last_activity_cycle = active_at;
          }
        }
      }
    }
    model.step();
    if (model.done()) {
      return RunEnd::kDone;
    }
    const u64 activity = model.activity();
    if (activity != last_activity) {
      last_activity = activity;
      last_activity_cycle = model.now();
    } else if (model.now() - last_activity_cycle >= kDeadlockWindow) {
      if (model.next_wake(kNever) == kNever) {
        return RunEnd::kDeadlock;
      }
      // A completion is scheduled for a known future cycle (slow gmem
      // response, DMA retire, in-flight flit): a long wait, not a hang.
      last_activity_cycle = model.now();
    }
  }
  return RunEnd::kMaxCycles;
}

}  // namespace mp3d::sim
