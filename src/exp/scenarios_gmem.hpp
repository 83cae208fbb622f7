// SPDX-License-Identifier: Apache-2.0
// Gmem channel-arbiter scenario definitions: the sweep behind
// bench/gmem_arbiter, exercising the bounded-share arbitration of the
// off-chip channel (GmemArbiterConfig) over {share bound} x {kernel} x
// {bandwidth 4..64 B/cycle}.
//
// Three scenario families:
//   - soak_sat:  a constant scalar word stream *oversaturating* the
//     channel against one bulk tenant offered the whole channel, on the
//     standalone channel soak (exp/channel_soak.hpp). Measures the bulk
//     share actually granted — 0 under the legacy absolute-priority
//     policy (the starvation bug), >= the configured minimum under the
//     bounded-share arbiter.
//   - soak_fair: the scalar stream offered at 90 % of its *guaranteed*
//     share (the complement of the bulk bound). Measures scalar queueing
//     latency, which must stay bounded: the arbiter may shift bytes to
//     bulk but never collapses the scalar class.
//   - kern:      real DMA-staged kernels (double-buffered matmul, staged
//     AXPY) on a mini cluster with the share knob threaded through
//     ClusterConfig — verifying results at every setting and pinning that
//     a nonzero guarantee does not regress kernel runtime.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "exp/scenario.hpp"

namespace mp3d::exp {

// ---- suite axes (shared by scenario registration and the bench gates) ----
// Share and bandwidth: gmem_shares / gmem_bws (exp/channel_soak.hpp).
std::vector<std::string> gmem_arbiter_kernels(bool smoke);

/// Scalar offered load (percent of channel) used by the soak families.
inline constexpr u32 kSoakSaturatedLoadPct = 150;
/// soak_fair offers this fraction (percent) of the scalar class's
/// guaranteed share, keeping its queue stable so latency is meaningful.
inline constexpr u32 kSoakFairLoadFraction = 90;
/// Scalar p99 latency bound gated by soak_fair, in cycles on top of the
/// model's fixed gmem latency.
inline constexpr double kSoakScalarP99Slack = 16.0;

std::string gmem_soak_sat_name(u64 share, u64 bw);
std::string gmem_soak_fair_name(u64 share, u64 bw);
std::string gmem_kernel_name(const std::string& kernel, u64 share, u64 bw);

/// Register every scenario of the gmem_arbiter suite.
void register_gmem_arbiter_scenarios(Registry& registry, bool smoke);

}  // namespace mp3d::exp
