// SPDX-License-Identifier: Apache-2.0
// Multi-cluster scaling sweep over the hierarchical System (src/sys/):
// weak scaling for staged memcpy and DMA-staged matmul at 1..8 clusters,
// a fig6-style fixed-batch speedup sweep under the least-loaded
// scheduler, and the single-cluster back-compat witness
// (src/exp/scenarios_system.*).
//
// Gates pin the PR's headline claims: weak-scaling efficiency >= 0.8 at
// the largest cluster count (near-linear scale-out despite the shared
// home cluster and mesh staging), a one-cluster System bit-identical to a
// bare Cluster, fast-forward on/off bit-identical at every cluster count,
// every job reaching EOC with verified outputs, and batch speedup growing
// monotonically with the cluster count.
#include <string>

#include "bench_util.hpp"
#include "exp/scenarios_system.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

/// Weak-scaling floor at the largest swept cluster count. The staging
/// serialization on the home cluster's mesh ports is the only part of the
/// makespan that grows with N, so the budget is generous headroom over
/// the measured efficiency (see BENCH table in CI).
constexpr double kWeakEfficiencyFloor = 0.8;

exp::Suite make_suite(const exp::CliOptions& options) {
  const bool smoke = options.smoke;
  exp::Suite suite;
  suite.name = "system_scaling";
  suite.title = "Multi-cluster System scaling (weak scaling + batch speedup)";
  exp::register_system_scenarios(suite.registry, smoke);

  // Efficiency / speedup are ratios against the c1 point of each family,
  // so they live in finalize (guarded: filtered runs may drop the base).
  suite.finalize = [smoke](exp::SweepReport& report) {
    for (exp::ScenarioResult& r : report.results) {
      if (r.output.rows.empty()) {
        continue;
      }
      const auto cycles = report.metric(r.name, "cycles");
      if (!cycles || *cycles <= 0.0) {
        continue;
      }
      for (const std::string& kernel : exp::system_weak_kernels()) {
        for (const u32 n : exp::system_cluster_counts(smoke)) {
          if (r.name == exp::system_weak_name(kernel, n)) {
            const auto base =
                report.metric(exp::system_weak_name(kernel, 1), "cycles");
            if (base) {
              r.output.rows[0].cell("efficiency", *base / *cycles, 4);
            }
          }
        }
      }
      for (const u32 n : exp::system_cluster_counts(smoke)) {
        if (r.name == exp::system_speedup_name(n)) {
          const auto base = report.metric(exp::system_speedup_name(1), "cycles");
          if (base) {
            r.output.rows[0].cell("speedup", *base / *cycles, 4);
          }
        }
      }
    }
  };

  suite.report = [smoke](const exp::SweepReport& report) {
    Table weak("Weak scaling: N staged jobs on N clusters (mini, 16 cores)");
    weak.header({"kernel", "clusters", "cycles", "efficiency", "icn energy",
                 "ff identical"});
    for (const std::string& kernel : exp::system_weak_kernels()) {
      for (const u32 n : exp::system_cluster_counts(smoke)) {
        const exp::ScenarioResult* r =
            report.find(exp::system_weak_name(kernel, n));
        if (r == nullptr || r->output.rows.empty()) {
          continue;
        }
        const exp::Row& row = r->output.rows[0];
        weak.row({kernel, row.get("clusters"), row.get("cycles"),
                  row.get("efficiency"), row.get("icn_energy_pct") + " %",
                  row.get("ff_identical") == "1" ? "yes" : "NO"});
      }
    }
    std::printf("%s\n", weak.to_string().c_str());

    Table speedup("Batch speedup: fixed memcpy batch, least-loaded scheduler");
    speedup.header({"clusters", "jobs", "cycles", "speedup", "ff identical"});
    for (const u32 n : exp::system_cluster_counts(smoke)) {
      const exp::ScenarioResult* r = report.find(exp::system_speedup_name(n));
      if (r == nullptr || r->output.rows.empty()) {
        continue;
      }
      const exp::Row& row = r->output.rows[0];
      speedup.row({row.get("clusters"), row.get("jobs"), row.get("cycles"),
                   row.get("speedup"),
                   row.get("ff_identical") == "1" ? "yes" : "NO"});
    }
    std::printf("%s\n", speedup.to_string().c_str());

    const exp::ScenarioResult* compat = report.find(exp::system_compat_name());
    if (compat != nullptr) {
      const auto identical = report.metric(compat->name, "identical");
      std::printf("single-cluster System vs bare Cluster: %s\n\n",
                  identical && *identical == 1.0 ? "bit-identical"
                                                 : "DIVERGED");
    }
  };

  suite.gate(
      "weak-scaling efficiency >= 0.8 at the largest cluster count "
      "(memcpy and DMA-staged matmul)",
      [smoke](const exp::SweepReport& report) {
        const u32 top = exp::system_cluster_counts(smoke).back();
        for (const std::string& kernel : exp::system_weak_kernels()) {
          const auto base =
              report.metric(exp::system_weak_name(kernel, 1), "cycles");
          const auto cycles =
              report.metric(exp::system_weak_name(kernel, top), "cycles");
          if (!base || !cycles) {
            return exp::system_weak_name(kernel, top) + " did not run";
          }
          const double efficiency = *base / *cycles;
          if (efficiency < kWeakEfficiencyFloor) {
            return exp::system_weak_name(kernel, top) + ": efficiency " +
                   fmt_norm(efficiency, 4) + " below " +
                   fmt_norm(kWeakEfficiencyFloor, 2);
          }
        }
        return std::string();
      });

  suite.gate("a one-cluster System is bit-identical to a bare Cluster",
             [](const exp::SweepReport& report) {
               const auto identical =
                   report.metric(exp::system_compat_name(), "identical");
               if (!identical) {
                 return exp::system_compat_name() + " did not run";
               }
               if (*identical != 1.0) {
                 return exp::system_compat_name() +
                        ": cycles, counters or memory diverged";
               }
               return std::string();
             });

  suite.gate("fast-forward on/off is bit-identical at every cluster count",
             [smoke](const exp::SweepReport& report) {
               std::vector<std::string> names;
               for (const std::string& kernel : exp::system_weak_kernels()) {
                 for (const u32 n : exp::system_cluster_counts(smoke)) {
                   names.push_back(exp::system_weak_name(kernel, n));
                 }
               }
               for (const u32 n : exp::system_cluster_counts(smoke)) {
                 names.push_back(exp::system_speedup_name(n));
               }
               for (const std::string& name : names) {
                 const auto identical = report.metric(name, "ff_identical");
                 if (!identical) {
                   return name + " did not run";
                 }
                 if (*identical != 1.0) {
                   return name + ": fast-forward on/off runs diverged";
                 }
               }
               return std::string();
             });

  suite.gate("every job reaches EOC with verified outputs",
             [](const exp::SweepReport& report) {
               for (const exp::ScenarioResult& r : report.results) {
                 const auto ok = report.metric(r.name, "jobs_ok");
                 if (!ok) {
                   continue;  // the compat scenario has no job batch
                 }
                 if (*ok != 1.0) {
                   return r.name + ": a job deadlocked, hit the cycle cap or "
                                   "failed verification";
                 }
               }
               return std::string();
             });

  suite.gate("batch speedup grows monotonically with the cluster count",
             [smoke](const exp::SweepReport& report) {
               double prev = 0.0;
               for (const u32 n : exp::system_cluster_counts(smoke)) {
                 const auto cycles =
                     report.metric(exp::system_speedup_name(n), "cycles");
                 if (!cycles) {
                   return exp::system_speedup_name(n) + " did not run";
                 }
                 if (prev != 0.0 && *cycles > prev) {
                   return exp::system_speedup_name(n) +
                          ": more cycles than at half the cluster count";
                 }
                 prev = *cycles;
               }
               return std::string();
             });

  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
