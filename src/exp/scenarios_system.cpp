// SPDX-License-Identifier: Apache-2.0
#include "exp/scenarios_system.hpp"

#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "power/energy_model.hpp"
#include "power/operating_point.hpp"
#include "sys/energy.hpp"
#include "sys/system.hpp"

namespace mp3d::exp {
namespace {

constexpr u64 kMaxCycles = 50'000'000;

/// Mini clusters (16 cores) keep an 8-cluster system affordable in a
/// bench-smoke budget while exercising every layer the full shape does.
sys::SystemConfig system_config(u32 clusters, sys::SchedPolicy policy,
                                bool fast_forward) {
  sys::SystemConfig cfg;
  cfg.num_clusters = clusters;
  cfg.cluster = arch::ClusterConfig::mini();
  cfg.cluster.fast_forward = fast_forward;
  cfg.policy = policy;
  return cfg;
}

/// A staged memcpy job: the move of the kernel's gmem source vector from
/// the home cluster is timed over the mesh before the run starts (its init
/// hook writes the vector in place).
sys::JobSpec memcpy_job(const arch::ClusterConfig& cfg, u32 n, u32 rounds,
                        u64 seed, const std::string& name) {
  sys::JobSpec job;
  job.name = name;
  job.kernel = kernels::build_memcpy_dma(cfg, n, rounds, seed);
  job.input_base = static_cast<u32>(cfg.gmem_base + MiB(1));
  job.input_bytes = static_cast<u64>(n) * 4;
  return job;
}

/// A staged matmul job: A and B stream in, C streams back to the home
/// cluster after EOC (the full shard-in / compute / shard-out shape).
sys::JobSpec matmul_job(const arch::ClusterConfig& cfg, u32 m, u32 t,
                        u64 seed, const std::string& name) {
  kernels::MatmulParams params;
  params.m = m;
  params.t = t;
  params.markers = false;
  sys::JobSpec job;
  job.name = name;
  job.kernel = kernels::build_matmul_dma(cfg, params, seed);
  const u64 mat_bytes = static_cast<u64>(m) * m * 4;
  job.input_base = static_cast<u32>(cfg.gmem_base + MiB(1));
  job.input_bytes = 2 * mat_bytes;  // A and B
  job.output_base = static_cast<u32>(cfg.gmem_base + MiB(1) + 2 * mat_bytes);
  job.output_bytes = mat_bytes;  // C
  return job;
}

std::vector<sys::JobSpec> weak_jobs(const std::string& kernel,
                                    const arch::ClusterConfig& cfg, u32 count,
                                    bool smoke) {
  std::vector<sys::JobSpec> jobs;
  jobs.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    const std::string name = kernel + std::to_string(i);
    if (kernel == "memcpy") {
      jobs.push_back(memcpy_job(cfg, smoke ? 1024 : 8192, smoke ? 2 : 8,
                                5 + i, name));
    } else {
      jobs.push_back(matmul_job(cfg, smoke ? 32 : 64, 16, 11 + i, name));
    }
  }
  return jobs;
}

/// Bit-identity between two system runs: makespan, the full counter map,
/// and every per-job record (placement, staging timestamps, the job's own
/// RunResult). This is what "fast-forward is observationally invisible"
/// means one hierarchy level up from sim_speed's cluster contract.
bool identical_runs(const sys::SystemResult& a, const sys::SystemResult& b) {
  if (a.cycles != b.cycles || a.ok != b.ok || !(a.counters == b.counters) ||
      a.jobs.size() != b.jobs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const sys::JobRecord& ja = a.jobs[i];
    const sys::JobRecord& jb = b.jobs[i];
    if (ja.cluster != jb.cluster || ja.assigned_at != jb.assigned_at ||
        ja.started_at != jb.started_at || ja.eoc_at != jb.eoc_at ||
        ja.completed_at != jb.completed_at ||
        ja.result.cycles != jb.result.cycles ||
        ja.result.instret != jb.result.instret ||
        ja.result.eoc != jb.result.eoc ||
        !(ja.result.counters == jb.result.counters)) {
      return false;
    }
  }
  return true;
}

/// Shared tail of every scaling scenario: run the same job batch with
/// fast-forward on and off, report the on-run's numbers plus the on/off
/// identity verdict, and credit both runs' simulated work.
ScenarioOutput scaling_output(u32 clusters, sys::SchedPolicy policy,
                              const std::vector<sys::JobSpec>& jobs) {
  const auto run_once = [&](bool ff) {
    sys::System system(system_config(clusters, policy, ff));
    return system.run_jobs(jobs, kMaxCycles);
  };
  const sys::SystemResult on = run_once(true);
  const sys::SystemResult off = run_once(false);

  bool jobs_ok = on.ok;
  u64 cluster_cycles = 0;
  for (const sys::JobRecord& job : on.jobs) {
    jobs_ok = jobs_ok && job.ok();
    cluster_cycles += job.result.cycles;
  }
  const power::OperatingPoint op = power::make_operating_point(
      system_config(clusters, policy, true).cluster, phys::Flow::k2D);
  const sys::SystemEnergyReport energy =
      sys::account_system(on, op, sys::SystemConfig{}.icn);

  ScenarioOutput out;
  out.metric("clusters", clusters)
      .metric("jobs", static_cast<double>(jobs.size()))
      .metric("cycles", static_cast<double>(on.cycles))
      .metric("jobs_ok", jobs_ok ? 1.0 : 0.0)
      .metric("ff_identical", identical_runs(on, off) ? 1.0 : 0.0)
      .metric("dma_bytes",
              static_cast<double>(on.counters.get("sys.dma.bytes")))
      .metric("byte_hops",
              static_cast<double>(on.counters.get("sys.icn.byte_hops")))
      .metric("icn_nj", energy.icn_nj)
      .metric("total_nj", energy.total_nj());
  // The off-run simulated the same cycles core-by-core; credit both.
  out.sim(2 * cluster_cycles);

  Row row;
  row.cell("clusters", static_cast<u64>(clusters))
      .cell("jobs", static_cast<u64>(jobs.size()))
      .cell("cycles", on.cycles)
      .cell("dma_bytes", on.counters.get("sys.dma.bytes"))
      .cell("byte_hops", on.counters.get("sys.icn.byte_hops"))
      .cell("icn_energy_pct", 100.0 * energy.icn_fraction(), 3)
      .cell("ff_identical", static_cast<u64>(identical_runs(on, off) ? 1 : 0));
  out.row(std::move(row));
  return out;
}

Scenario make_weak(const std::string& kernel, u32 clusters, bool smoke) {
  Scenario s;
  s.name = system_weak_name(kernel, clusters);
  s.description = "weak scaling: " + std::to_string(clusters) +
                  " staged copies of the " + kernel + " job on " +
                  std::to_string(clusters) + " mini clusters";
  s.run = [kernel, clusters, smoke]() {
    const sys::SystemConfig cfg =
        system_config(clusters, sys::SchedPolicy::kRoundRobin, true);
    ScenarioOutput out = scaling_output(
        clusters, sys::SchedPolicy::kRoundRobin,
        weak_jobs(kernel, cfg.cluster, clusters, smoke));
    out.rows[0].cell("kernel", kernel);
    return out;
  };
  return s;
}

Scenario make_speedup(u32 clusters, bool smoke) {
  Scenario s;
  s.name = system_speedup_name(clusters);
  s.description = "fixed batch of " +
                  std::to_string(system_speedup_jobs(smoke)) +
                  " memcpy jobs drained least-loaded by " +
                  std::to_string(clusters) + " clusters";
  s.run = [clusters, smoke]() {
    const sys::SystemConfig cfg =
        system_config(clusters, sys::SchedPolicy::kLeastLoaded, true);
    ScenarioOutput out = scaling_output(
        clusters, sys::SchedPolicy::kLeastLoaded,
        weak_jobs("memcpy", cfg.cluster, system_speedup_jobs(smoke), smoke));
    out.rows[0].cell("kernel", "memcpy");
    return out;
  };
  return s;
}

Scenario make_compat(bool smoke) {
  Scenario s;
  s.name = system_compat_name();
  s.description =
      "bare Cluster vs one-cluster System: bit-identical cycles, counters "
      "and memory";
  s.run = [smoke]() {
    const arch::ClusterConfig cfg = arch::ClusterConfig::mini();
    const kernels::Kernel kernel =
        kernels::build_memcpy_dma(cfg, smoke ? 1024 : 4096, smoke ? 2 : 4, 7);

    arch::Cluster bare(cfg);
    const arch::RunResult bare_result =
        kernels::run_kernel(bare, kernel, kMaxCycles);
    const std::vector<u32> bare_mem =
        bare.read_words(cfg.gmem_base + MiB(1), 1024);

    sys::SystemConfig scfg;
    scfg.num_clusters = 1;
    scfg.cluster = cfg;
    sys::System system(scfg);
    const sys::SystemResult sys_result = system.run_kernel(kernel, kMaxCycles);
    const std::vector<u32> sys_mem =
        system.cluster(0).read_words(cfg.gmem_base + MiB(1), 1024);

    const arch::RunResult& through = sys_result.jobs[0].result;
    const bool identical =
        bare_result.cycles == through.cycles &&
        bare_result.instret == through.instret &&
        bare_result.eoc == through.eoc &&
        bare_result.counters == through.counters && bare_mem == sys_mem;

    ScenarioOutput out;
    out.metric("identical", identical ? 1.0 : 0.0)
        .metric("cycles", static_cast<double>(bare_result.cycles));
    out.sim(bare_result.cycles + through.cycles);
    Row row;
    row.cell("clusters", static_cast<u64>(1))
        .cell("jobs", static_cast<u64>(1))
        .cell("cycles", bare_result.cycles)
        .cell("kernel", "memcpy")
        .cell("identical", static_cast<u64>(identical ? 1 : 0));
    out.row(std::move(row));
    return out;
  };
  return s;
}

}  // namespace

std::vector<u32> system_cluster_counts(bool smoke) {
  if (smoke) {
    return {1, 2};
  }
  return {1, 2, 4, 8};
}

std::vector<std::string> system_weak_kernels() { return {"memcpy", "matmul"}; }

u32 system_speedup_jobs(bool smoke) { return smoke ? 4 : 8; }

std::string system_weak_name(const std::string& kernel, u32 clusters) {
  return "sys/weak/" + kernel + "/c" + std::to_string(clusters);
}

std::string system_speedup_name(u32 clusters) {
  return "sys/speedup/memcpy/c" + std::to_string(clusters);
}

std::string system_compat_name() { return "sys/compat/single_cluster"; }

void register_system_scenarios(Registry& registry, bool smoke) {
  for (const std::string& kernel : system_weak_kernels()) {
    for (const u32 clusters : system_cluster_counts(smoke)) {
      registry.add(make_weak(kernel, clusters, smoke));
    }
  }
  for (const u32 clusters : system_cluster_counts(smoke)) {
    registry.add(make_speedup(clusters, smoke));
  }
  registry.add(make_compat(smoke));
}

}  // namespace mp3d::exp
