// SPDX-License-Identifier: Apache-2.0
// Mixed-tenancy QoS scenario definitions: the sweep behind bench/gmem_qos,
// run on the standalone channel soak (exp/channel_soak.hpp).
//
// One latency-critical scalar service shares the off-chip channel with
// streaming DMA tenants. The scalar tenant is *bursty*: short phases that
// oversaturate the channel (a latency-critical service absorbing request
// spikes) separated by long quiet phases at a trickle load. The bulk
// tenants stream continuously with aggregate offered rate above the
// channel width, so the channel never idles and every byte the scalar
// class does not take is a byte of bulk throughput.
//
// Against this mix the sweep charts the scalar-p99 vs bulk-throughput
// Pareto front over {policy} x {offered load} x {bandwidth}:
//   - qos_static:   a fixed `bulk_min_pct` share. During a scalar burst a
//     nonzero guarantee keeps feeding bulk while the latency-critical
//     backlog drains, multiplying the scalar tail; during quiet phases the
//     guarantee buys nothing that channel leftovers would not already
//     provide. Every static setting is a compromise across phases.
//   - qos_adaptive: the qos::AdaptiveShareController closing the loop at
//     runtime — raising the share while bulk demand is sustained and the
//     windowed scalar p99 is within budget, shedding it multiplicatively
//     within a couple of windows of burst onset.
//
// The headline bench gate checks that the controller Pareto-dominates or
// ties every static share (p99 no worse than the best static, bulk
// throughput no worse than the best static) and strictly beats at least
// one, on two or more bandwidth points.
#pragma once

#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/units.hpp"
#include "exp/scenario.hpp"

namespace mp3d::exp {

/// The controller configuration the qos_adaptive scenarios run: bounds
/// 0..40 %, +10 % raise steps, 16-cycle windows, scalar p99 budget of
/// `p99_budget` cycles (default 16 = the model's fixed latency plus a
/// short queue — low enough to catch a burst in its first window).
arch::AdaptiveShareConfig qos_soak_controller(u32 p99_budget = 16);

// ---- suite axes (shared by scenario registration and the bench gates) ----
// Static share and bandwidth: gmem_shares / gmem_bws (exp/channel_soak.hpp).
std::vector<u64> gmem_qos_loads(bool smoke);  ///< burst_load_pct values

std::string gmem_qos_static_name(u64 share, u64 load, u64 bw);
std::string gmem_qos_adaptive_name(u64 load, u64 bw);

/// Register every scenario of the gmem_qos suite.
void register_gmem_qos_scenarios(Registry& registry, bool smoke);

}  // namespace mp3d::exp
