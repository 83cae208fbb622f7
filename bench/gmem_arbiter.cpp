// SPDX-License-Identifier: Apache-2.0
// Gmem channel-arbiter sweep: bounded-share arbitration of the off-chip
// channel over {share bound} x {kernel} x {bandwidth 4..64 B/cycle}.
//
// Scenario families (src/exp/scenarios_gmem.*): synthetic soaks of a
// standalone channel (src/exp/channel_soak.*) — a scalar-saturated stream
// against one bulk tenant offered the whole channel (soak_sat) and a
// latency probe with the scalar class at 90 % of its guaranteed share
// (soak_fair) — plus real DMA-staged kernels on a mini cluster with the
// knob threaded through ClusterConfig.
//
// Gates:
//   - share=0 (the default every paper figure uses) reproduces the legacy
//     absolute-priority policy exactly: bulk starves under scalar
//     saturation (the documented behavior the arbiter is guarded behind);
//   - a nonzero bound guarantees bulk at least its configured minimum
//     share of the channel under scalar saturation;
//   - scalar p99 queueing latency stays bounded at its guaranteed share;
//   - threading the knob through a real DMA kernel never regresses its
//     runtime beyond noise, and every kernel still verifies.
#include "bench_util.hpp"
#include "exp/channel_soak.hpp"
#include "exp/scenarios_gmem.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

exp::Suite make_suite(const exp::CliOptions& options) {
  const bool smoke = options.smoke;
  exp::Suite suite;
  suite.name = "gmem_arbiter";
  suite.title = "Bounded-share gmem channel arbiter sweep";
  exp::register_gmem_arbiter_scenarios(suite.registry, smoke);

  suite.report = [](const exp::SweepReport& report) {
    Table table("Bounded-share gmem channel arbiter");
    table.header({"scenario", "share [%]", "BW [B/cyc]", "bulk share", "scalar p50",
                  "scalar p99", "cycles"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty()) {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      table.row({r.name, row.get("share"), row.get("bw"), row.get("bulk_share"),
                 row.get("scalar_p50"), row.get("scalar_p99"), row.get("cycles")});
    }
    std::printf("%s\n", table.to_string().c_str());
  };

  suite.gate("default share=0 keeps the legacy absolute scalar priority",
             [smoke](const exp::SweepReport& report) {
               for (const u64 bw : exp::gmem_bws(smoke)) {
                 const std::string name = exp::gmem_soak_sat_name(0, bw);
                 const auto share = report.metric(name, "bulk_share");
                 const auto stalls = report.metric(name, "bulk_stall_cycles");
                 if (!share || !stalls) {
                   return name + " did not run";
                 }
                 if (*share != 0.0) {
                   return name + ": bulk got " + fmt_norm(*share, 4) +
                          " of a scalar-saturated channel under the legacy policy";
                 }
                 if (*stalls == 0.0) {
                   return name + ": expected bulk stall cycles under starvation";
                 }
               }
               return std::string();
             });

  suite.gate("bulk sustains >= its configured minimum share under scalar saturation",
             [smoke](const exp::SweepReport& report) {
               for (const u64 share : exp::gmem_shares(smoke)) {
                 if (share == 0) {
                   continue;
                 }
                 for (const u64 bw : exp::gmem_bws(smoke)) {
                   const std::string name = exp::gmem_soak_sat_name(share, bw);
                   const auto got = report.metric(name, "bulk_share");
                   if (!got) {
                     return name + " did not run";
                   }
                   const double bound = 0.95 * static_cast<double>(share) / 100.0;
                   if (*got < bound) {
                     return name + ": bulk share " + fmt_norm(*got, 4) +
                            " below the guaranteed " + fmt_norm(bound, 4);
                   }
                 }
               }
               return std::string();
             });

  suite.gate("scalar p99 queueing latency stays bounded at its guaranteed share",
             [smoke](const exp::SweepReport& report) {
               for (const u64 share : exp::gmem_shares(smoke)) {
                 for (const u64 bw : exp::gmem_bws(smoke)) {
                   const std::string name = exp::gmem_soak_fair_name(share, bw);
                   const auto p99 = report.metric(name, "scalar_p99");
                   const auto lat = report.metric(name, "gmem_latency");
                   if (!p99 || !lat) {
                     return name + " did not run";
                   }
                   const double bound = *lat + exp::kSoakScalarP99Slack;
                   if (*p99 > bound) {
                     return name + ": scalar p99 " + fmt_norm(*p99, 1) +
                            " cycles exceeds the " + fmt_norm(bound, 1) +
                            "-cycle bound";
                   }
                 }
               }
               return std::string();
             });

  suite.gate("a nonzero bound never regresses DMA kernel runtime beyond noise",
             [smoke](const exp::SweepReport& report) {
               for (const std::string& kernel : exp::gmem_arbiter_kernels(smoke)) {
                 for (const u64 bw : exp::gmem_bws(smoke)) {
                   const auto base =
                       report.metric(exp::gmem_kernel_name(kernel, 0, bw), "cycles");
                   if (!base) {
                     return exp::gmem_kernel_name(kernel, 0, bw) + " did not run";
                   }
                   for (const u64 share : exp::gmem_shares(smoke)) {
                     if (share == 0) {
                       continue;
                     }
                     const std::string name = exp::gmem_kernel_name(kernel, share, bw);
                     const auto cycles = report.metric(name, "cycles");
                     if (!cycles) {
                       return name + " did not run";
                     }
                     if (*cycles > *base * 1.05) {
                       return name + ": " + fmt_norm(*cycles, 0) +
                              " cycles vs share=0 baseline " + fmt_norm(*base, 0);
                     }
                   }
                 }
               }
               return std::string();
             });

  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
