// SPDX-License-Identifier: Apache-2.0
// Mixed-tenancy QoS sweep: a bursty latency-critical scalar service
// sharing the off-chip channel with streaming DMA tenants, over
// {policy: static shares + adaptive controller} x {burst load} x
// {bandwidth 4..64 B/cycle} (src/exp/scenarios_qos.*).
//
// The headline gate is the Pareto check from the controller's design
// brief: at each bandwidth point the adaptive policy must dominate or tie
// every static `bulk_min_pct` on the (scalar p99, bulk throughput) plane
// — p99 no worse than the static's within a 10 % tie band, bulk
// throughput no worse within 2 % — and strictly beat at least one static
// (p99 at most 2/3 of the static's at tied throughput). The gate passes
// when at least two bandwidth points qualify.
//
// Supporting gates pin the physics the headline result rests on: the
// controller really adapts (shares move), scalar backlogs drain inside
// each burst period (so p99 is never censored by unserved requests), and
// the streaming tenants keep the channel saturated (so bulk throughput
// differences are real, not idle-time artifacts).
#include <string>

#include "bench_util.hpp"
#include "exp/channel_soak.hpp"
#include "exp/scenarios_qos.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

/// Tie tolerances for the Pareto comparison: latency tails wobble with a
/// couple of controller windows' worth of burst-onset backlog, bulk bytes
/// only with end-of-run residue.
constexpr double kP99TieBand = 1.10;
constexpr double kBulkTieBand = 0.98;
/// A static share is "strictly beaten" when the controller delivers at
/// most this fraction of its scalar p99 at tied bulk throughput.
constexpr double kP99StrictBand = 2.0 / 3.0;

exp::Suite make_suite(const exp::CliOptions& options) {
  const bool smoke = options.smoke;
  exp::Suite suite;
  suite.name = "gmem_qos";
  suite.title = "Mixed-tenancy QoS sweep (static shares vs adaptive controller)";
  exp::register_gmem_qos_scenarios(suite.registry, smoke);

  suite.report = [](const exp::SweepReport& report) {
    Table table("Mixed-tenancy QoS: scalar p99 vs bulk throughput");
    table.header({"scenario", "share", "load [%]", "BW [B/cyc]", "scalar p50",
                  "scalar p99", "bulk tput", "share avg", "adjust"});
    for (const exp::ScenarioResult& r : report.results) {
      if (!r.ok() || r.output.rows.empty()) {
        continue;
      }
      const exp::Row& row = r.output.rows[0];
      table.row({r.name, row.get("share"), row.get("load"), row.get("bw"),
                 row.get("scalar_p50"), row.get("scalar_p99"),
                 row.get("bulk_tput"), row.get("share_avg"), row.get("adjust")});
    }
    std::printf("%s\n", table.to_string().c_str());
  };

  suite.gate(
      "adaptive controller Pareto-dominates or ties every static share, "
      "strictly beating one, on >= 2 bandwidth points",
      [smoke](const exp::SweepReport& report) {
        u32 qualifying = 0;
        std::string detail;
        for (const u64 bw : exp::gmem_bws(smoke)) {
          bool dominates_all = true;
          bool strict_any = false;
          for (const u64 load : exp::gmem_qos_loads(smoke)) {
            const std::string aname = exp::gmem_qos_adaptive_name(load, bw);
            const auto ap99 = report.metric(aname, "scalar_p99");
            const auto abulk = report.metric(aname, "bulk_bytes");
            if (!ap99 || !abulk) {
              return aname + " did not run";
            }
            for (const u64 share : exp::gmem_shares(smoke)) {
              const std::string sname =
                  exp::gmem_qos_static_name(share, load, bw);
              const auto sp99 = report.metric(sname, "scalar_p99");
              const auto sbulk = report.metric(sname, "bulk_bytes");
              if (!sp99 || !sbulk) {
                return sname + " did not run";
              }
              const bool p99_tied = *ap99 <= *sp99 * kP99TieBand;
              const bool bulk_tied = *abulk >= *sbulk * kBulkTieBand;
              if (!p99_tied || !bulk_tied) {
                dominates_all = false;
                if (detail.empty()) {
                  detail = "bw=" + std::to_string(bw) + ": adaptive (p99 " +
                           fmt_norm(*ap99, 1) + ", bulk " + fmt_norm(*abulk, 0) +
                           ") vs " + sname + " (p99 " + fmt_norm(*sp99, 1) +
                           ", bulk " + fmt_norm(*sbulk, 0) + ")";
                }
              }
              if (p99_tied && bulk_tied && *ap99 <= *sp99 * kP99StrictBand) {
                strict_any = true;
              }
            }
          }
          if (dominates_all && strict_any) {
            ++qualifying;
          }
        }
        if (qualifying >= 2) {
          return std::string();
        }
        return "only " + std::to_string(qualifying) +
               " bandwidth point(s) qualify; first miss: " + detail;
      });

  suite.gate("the controller adapts: shares move and average above the floor",
             [smoke](const exp::SweepReport& report) {
               for (const u64 load : exp::gmem_qos_loads(smoke)) {
                 for (const u64 bw : exp::gmem_bws(smoke)) {
                   const std::string name = exp::gmem_qos_adaptive_name(load, bw);
                   const auto adj = report.metric(name, "adjustments");
                   const auto avg = report.metric(name, "share_avg");
                   if (!adj || !avg) {
                     return name + " did not run";
                   }
                   if (*adj < 4.0) {
                     return name + ": only " + fmt_norm(*adj, 0) +
                            " share adjustments over the whole run";
                   }
                   if (*avg <= 5.0) {
                     return name + ": average live share " + fmt_norm(*avg, 1) +
                            " % never left the floor";
                   }
                 }
               }
               return std::string();
             });

  suite.gate("scalar backlogs drain inside every burst period (p99 uncensored)",
             [](const exp::SweepReport& report) {
               for (const exp::ScenarioResult& r : report.results) {
                 const auto backlog = report.metric(r.name, "backlog_end");
                 if (!backlog) {
                   return r.name + " did not run";
                 }
                 if (*backlog > 16.0) {
                   return r.name + ": " + fmt_norm(*backlog, 0) +
                          " scalar requests still queued at end of run";
                 }
               }
               return std::string();
             });

  suite.gate("streaming tenants keep the channel saturated",
             [](const exp::SweepReport& report) {
               for (const exp::ScenarioResult& r : report.results) {
                 const auto util = report.metric(r.name, "channel_util");
                 if (!util) {
                   return r.name + " did not run";
                 }
                 if (*util < 0.99) {
                   return r.name + ": channel utilization " + fmt_norm(*util, 4) +
                          " below 0.99";
                 }
               }
               return std::string();
             });

  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
