// SPDX-License-Identifier: Apache-2.0
// The multi-cluster System driver: job sharding, staging through the home
// store, scheduler policies, counter namespacing, determinism across
// back-to-back runs, the recorded schedule of the mixed job batch, the
// per-job deadlock verdict, and system-level energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "power/energy_model.hpp"
#include "sys/energy.hpp"
#include "sys/system.hpp"
#include "testing.hpp"

namespace mp3d {
namespace {

using mp3d::testing::ctrl_prelude;

sys::SystemConfig mini_system(u32 clusters) {
  sys::SystemConfig cfg;
  cfg.num_clusters = clusters;
  cfg.cluster = arch::ClusterConfig::mini();
  return cfg;
}

/// A staged memcpy job: the kernel's gmem source vector (written by its
/// init hook) is homed and transferred in over the mesh before the run.
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
/// store after EOC (the full shard-in / compute / shard-out shape).
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

/// The job batch of bench/e2e's system_mixed_4c at its smoke size: staged
/// matmuls (m = 32, t = 16) alternating with staged two-round copies of
/// 1,024 words, job i seeded 1000 + i.
std::vector<sys::JobSpec> mixed_jobs(const arch::ClusterConfig& cfg, u32 count) {
  std::vector<sys::JobSpec> jobs;
  for (u32 i = 0; i < count; ++i) {
    const u64 seed = 1000 + i;
    jobs.push_back(i % 2 == 0
                       ? matmul_job(cfg, 32, 16, seed, "matmul" + std::to_string(i))
                       : memcpy_job(cfg, 1024, 2, seed, "memcpy" + std::to_string(i)));
  }
  return jobs;
}

/// FNV-1a over every counter's name and value, in name order.
u64 counter_digest(const sim::CounterSet& counters) {
  u64 h = 14695981039346656037ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const auto& [name, value] : counters.all()) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  return h;
}

void expect_same_records(const sys::SystemResult& a, const sys::SystemResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_TRUE(a.counters == b.counters);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const sys::JobRecord& x = a.jobs[i];
    const sys::JobRecord& y = b.jobs[i];
    EXPECT_EQ(x.cluster, y.cluster) << x.name;
    EXPECT_EQ(x.assigned_at, y.assigned_at) << x.name;
    EXPECT_EQ(x.started_at, y.started_at) << x.name;
    EXPECT_EQ(x.eoc_at, y.eoc_at) << x.name;
    EXPECT_EQ(x.completed_at, y.completed_at) << x.name;
    EXPECT_EQ(x.verify_error, y.verify_error) << x.name;
    EXPECT_EQ(x.result.cycles, y.result.cycles) << x.name;
    EXPECT_TRUE(x.result.counters == y.result.counters) << x.name;
  }
}

TEST(System, SingleClusterRunKernelKeepsBareCounterNames) {
  sys::System system(mini_system(1));
  const kernels::Kernel kernel =
      kernels::build_memcpy_dma(arch::ClusterConfig::mini(), 1024, 1, 5);
  const sys::SystemResult result = system.run_kernel(kernel, 2'000'000);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.jobs.size(), 1U);
  EXPECT_TRUE(result.jobs[0].result.eoc);
  EXPECT_TRUE(result.jobs[0].verify_error.empty());
  // N == 1: bare-cluster counter names, no c<k>. prefix anywhere.
  EXPECT_TRUE(result.counters.has("core.instret"));
  EXPECT_TRUE(result.counters.has("dma.bytes"));
  EXPECT_FALSE(result.counters.has("c0.core.instret"));
  // The system's own counters ride alongside; nothing crossed the mesh.
  EXPECT_EQ(result.counters.get("sys.icn.bytes"), 0U);
  EXPECT_EQ(result.counters.get("cycles"), result.cycles);
}

TEST(System, ShardsStagedJobsAcrossFourClusters) {
  sys::System system(mini_system(4));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  std::vector<sys::JobSpec> jobs;
  for (u32 i = 0; i < 4; ++i) {
    jobs.push_back(memcpy_job(ccfg, 1024, 2, 5 + i, "memcpy" + std::to_string(i)));
  }
  const u64 staged_bytes = 4 * 1024 * 4;
  const sys::SystemResult result = system.run_jobs(jobs, 5'000'000);
  ASSERT_TRUE(result.ok);
  std::set<u32> used;
  for (const sys::JobRecord& job : result.jobs) {
    EXPECT_TRUE(job.ok()) << job.name << ": " << job.verify_error;
    used.insert(job.cluster);
    // Staging is timed: the cluster starts only after its input landed.
    EXPECT_GT(job.started_at, job.assigned_at);
    EXPECT_GE(job.eoc_at, job.started_at);
    EXPECT_EQ(job.completed_at, job.eoc_at);  // no write-back region
  }
  EXPECT_EQ(used.size(), 4U);  // round-robin: one job per cluster
  // Namespaced per-cluster counters plus system-level fabric counters.
  EXPECT_TRUE(result.counters.has("c0.core.instret"));
  EXPECT_TRUE(result.counters.has("c3.cycles"));
  EXPECT_FALSE(result.counters.has("core.instret"));
  EXPECT_EQ(result.counters.get("sys.dma.descriptors"), 4U);
  EXPECT_EQ(result.counters.get("sys.dma.bytes"), staged_bytes);
  EXPECT_EQ(result.counters.get("sys.icn.bytes"), staged_bytes);
  // Cluster 0 is the home cluster: its own job's staging is a local claim.
  EXPECT_GT(result.counters.get("sys.icn.local_bytes"), 0U);
  // The staged inputs sit in the System's home store, in slots taken down
  // from the top of the gmem window. The home cluster's own shard reads 0
  // over that whole span, so a job running there never sees staging.
  const u32 top = static_cast<u32>(ccfg.gmem_base + ccfg.gmem_size);
  const u32 span_base = static_cast<u32>(top - staged_bytes);
  const std::vector<u32> shard =
      system.cluster(0).read_words(span_base, staged_bytes / 4);
  EXPECT_EQ(std::count(shard.begin(), shard.end(), 0U),
            static_cast<std::ptrdiff_t>(shard.size()));
  u32 staged_nonzero = 0;
  for (u32 addr = span_base; addr < top; addr += 4) {
    staged_nonzero += system.home_store().read_word(addr) != 0 ? 1 : 0;
  }
  EXPECT_GT(staged_nonzero, 0U);
}

TEST(System, MatmulRoundTripStagesOutputsBackToTheHomeStore) {
  sys::System system(mini_system(2));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  std::vector<sys::JobSpec> jobs;
  jobs.push_back(matmul_job(ccfg, 32, 16, 11, "mm0"));
  jobs.push_back(matmul_job(ccfg, 32, 16, 12, "mm1"));
  const sys::SystemResult result = system.run_jobs(jobs, 10'000'000);
  ASSERT_TRUE(result.ok);
  for (const sys::JobRecord& job : result.jobs) {
    EXPECT_TRUE(job.ok()) << job.name << ": " << job.verify_error;
    // Write-back is timed too: completion strictly after the run's end.
    EXPECT_GT(job.completed_at, job.eoc_at);
  }
  // in: 2 jobs x (A+B); out: 2 jobs x C.
  const u64 mat = 32 * 32 * 4;
  EXPECT_EQ(result.counters.get("sys.dma.bytes"), 2 * (2 * mat) + 2 * mat);
  EXPECT_EQ(result.counters.get("sys.dma.descriptors"), 4U);
  // The worker cluster's C tile crossed the mesh into the home store:
  // verify the home copy of job mm1's output matches the worker's. Both
  // jobs are dispatched at cycle 0, mm0 first, and each takes a slot as
  // large as its larger region (A and B) down from the top of the window.
  const sys::JobRecord& remote = result.jobs[1];
  ASSERT_EQ(remote.cluster, 1U);
  EXPECT_GT(result.counters.get("sys.icn.byte_hops"), 0U);
  const u32 slot = static_cast<u32>(ccfg.gmem_base + ccfg.gmem_size - 2 * (2 * mat));
  const u32 c_base = static_cast<u32>(ccfg.gmem_base + MiB(1) + 2 * mat);
  u32 nonzero = 0;
  for (u32 i = 0; i < mat / 4; ++i) {
    const u32 worker_word = system.cluster(1).read_word(c_base + 4 * i);
    ASSERT_EQ(system.home_store().read_word(slot + 4 * i), worker_word) << "word " << i;
    nonzero += worker_word != 0 ? 1 : 0;
  }
  EXPECT_GT(nonzero, 0U);
}

TEST(System, SchedulerPoliciesDivergeOnSkewedJobs) {
  const arch::ClusterConfig ccfg = arch::ClusterConfig::mini();
  // Job 0 is ~4x the work of job 1; job 2 should wait for cluster 0 under
  // round-robin pinning but take the first idle cluster (1) when the
  // scheduler adapts.
  const auto jobs = [&]() {
    std::vector<sys::JobSpec> list;
    list.push_back(memcpy_job(ccfg, 1024, 8, 5, "long"));
    list.push_back(memcpy_job(ccfg, 1024, 1, 6, "short"));
    list.push_back(memcpy_job(ccfg, 1024, 1, 7, "tail"));
    return list;
  };
  sys::SystemConfig rr = mini_system(2);
  rr.policy = sys::SchedPolicy::kRoundRobin;
  sys::System rr_system(rr);
  const sys::SystemResult rr_result = rr_system.run_jobs(jobs(), 10'000'000);
  ASSERT_TRUE(rr_result.ok);
  EXPECT_EQ(rr_result.jobs[2].cluster, 0U);

  sys::SystemConfig ll = mini_system(2);
  ll.policy = sys::SchedPolicy::kLeastLoaded;
  sys::System ll_system(ll);
  const sys::SystemResult ll_result = ll_system.run_jobs(jobs(), 10'000'000);
  ASSERT_TRUE(ll_result.ok);
  EXPECT_EQ(ll_result.jobs[2].cluster, 1U);
  // Adapting to the skew finishes the batch sooner.
  EXPECT_LT(ll_result.cycles, rr_result.cycles);
}

TEST(System, BackToBackRunsAreIdentical) {
  sys::System system(mini_system(2));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  const auto jobs = [&]() {
    std::vector<sys::JobSpec> list;
    list.push_back(memcpy_job(ccfg, 1024, 2, 5, "a"));
    list.push_back(memcpy_job(ccfg, 1024, 1, 6, "b"));
    list.push_back(memcpy_job(ccfg, 1024, 1, 7, "c"));
    return list;
  };
  const sys::SystemResult first = system.run_jobs(jobs(), 10'000'000);
  const sys::SystemResult second = system.run_jobs(jobs(), 10'000'000);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  expect_same_records(first, second);
}

TEST(SystemSchedule, MixedBatchKeepsTheRecordedSchedule) {
  // Recorded at the single-threaded lockstep loop, which stepped every
  // running cluster in turn each system cycle: every record field and
  // counter must stay the same however the clusters are advanced.
  struct Pinned {
    u32 cluster;
    sim::Cycle assigned_at, started_at, eoc_at, completed_at;
    u64 cycles;
  };
  const std::vector<Pinned> pinned = {
      {0, 0, 383, 9578, 9700, 9195},       {1, 0, 261, 1005, 1005, 744},
      {2, 0, 390, 9585, 9719, 9195},       {3, 0, 271, 1015, 1015, 744},
      {1, 1005, 1204, 10399, 10471, 9195}, {3, 1015, 1158, 1902, 1902, 744},
      {3, 1902, 2045, 11240, 11320, 9195}, {0, 9700, 9769, 10513, 10513, 744},
  };
  sys::SystemConfig cfg = mini_system(4);
  cfg.policy = sys::SchedPolicy::kLeastLoaded;
  sys::System system(cfg);
  const sys::SystemResult result = system.run_jobs(mixed_jobs(cfg.cluster, 8), 50'000'000);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.cycles, 11'320U);
  ASSERT_EQ(result.jobs.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const sys::JobRecord& job = result.jobs[i];
    EXPECT_EQ(job.cluster, pinned[i].cluster) << job.name;
    EXPECT_EQ(job.assigned_at, pinned[i].assigned_at) << job.name;
    EXPECT_EQ(job.started_at, pinned[i].started_at) << job.name;
    EXPECT_EQ(job.eoc_at, pinned[i].eoc_at) << job.name;
    EXPECT_EQ(job.completed_at, pinned[i].completed_at) << job.name;
    EXPECT_EQ(job.result.cycles, pinned[i].cycles) << job.name;
  }
  EXPECT_EQ(counter_digest(result.counters), 0x1f5acef8f2974f83ULL);
}

TEST(SystemSchedule, RepeatedLargeBatchGivesIdenticalRecords) {
  // Eight clusters draining 32 jobs keep many clusters running at once,
  // with staging and job ends landing while others run.
  sys::SystemConfig cfg = mini_system(8);
  cfg.policy = sys::SchedPolicy::kLeastLoaded;
  sys::System system(cfg);
  const sys::SystemResult first = system.run_jobs(mixed_jobs(cfg.cluster, 32), 50'000'000);
  const sys::SystemResult second = system.run_jobs(mixed_jobs(cfg.cluster, 32), 50'000'000);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  std::set<u32> used;
  for (const sys::JobRecord& job : first.jobs) {
    used.insert(job.cluster);
  }
  EXPECT_EQ(used.size(), 8U);
  expect_same_records(first, second);
}

TEST(SystemDeadlock, AJobEndsAtItsOwnClustersVerdict) {
  // Every core of one job sleeps for good while a staged copy runs beside
  // it. The sleeper's record ends where a bare run of it reports the
  // deadlock, offset by its start; the copy still runs to a verified end.
  const arch::ClusterConfig ccfg = arch::ClusterConfig::mini();
  const std::string src = ctrl_prelude(ccfg) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)";
  isa::AsmOptions options;
  options.default_base = ccfg.gmem_base;
  kernels::Kernel sleeper;
  sleeper.name = "sleep_forever";
  sleeper.program = isa::assemble(src, options);
  arch::Cluster bare(ccfg);
  bare.load_program(sleeper.program);
  const arch::RunResult verdict = bare.run(500'000);
  ASSERT_TRUE(verdict.deadlock);

  sys::System system(mini_system(2));
  std::vector<sys::JobSpec> jobs(1);
  jobs[0].name = sleeper.name;
  jobs[0].kernel = sleeper;
  jobs.push_back(memcpy_job(ccfg, 1024, 8, 5, "copy"));
  const sys::SystemResult result = system.run_jobs(jobs, 500'000);
  EXPECT_TRUE(result.deadlock && !result.ok);
  EXPECT_FALSE(result.hit_max_cycles);
  ASSERT_EQ(result.jobs.size(), 2U);
  const sys::JobRecord& sleep = result.jobs[0];
  EXPECT_TRUE(sleep.result.deadlock);
  EXPECT_EQ(sleep.result.cycles, verdict.cycles);
  EXPECT_EQ(sleep.eoc_at, sleep.started_at + verdict.cycles);
  EXPECT_EQ(sleep.completed_at, sleep.eoc_at);
  const sys::JobRecord& copy = result.jobs[1];
  EXPECT_TRUE(copy.ok()) << copy.verify_error;
  EXPECT_LT(copy.completed_at, sleep.eoc_at);
  EXPECT_EQ(result.cycles, sleep.eoc_at);
}

TEST(System, AThrowingHookLeavesTheSystemReusable) {
  // A verify hook throws on the System's thread while the other job still
  // runs on its own: run_jobs stops and joins it before the exception
  // leaves, and the next run matches a fresh System's.
  sys::System system(mini_system(2));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  const auto jobs = [&]() {
    std::vector<sys::JobSpec> list;
    list.push_back(memcpy_job(ccfg, 1024, 1, 5, "short"));
    list.push_back(memcpy_job(ccfg, 1024, 8, 6, "long"));
    return list;
  };
  std::vector<sys::JobSpec> failing = jobs();
  failing[0].kernel.verify = [](arch::Cluster&, const arch::RunResult&) -> std::string {
    throw std::runtime_error("verify hook failed");
  };
  EXPECT_THROW(system.run_jobs(failing, 10'000'000), std::runtime_error);
  const sys::SystemResult again = system.run_jobs(jobs(), 10'000'000);
  sys::System fresh(mini_system(2));
  const sys::SystemResult reference = fresh.run_jobs(jobs(), 10'000'000);
  ASSERT_TRUE(again.ok);
  expect_same_records(again, reference);
}

TEST(System, HitMaxCyclesIsReportedNotThrown) {
  sys::System system(mini_system(1));
  const kernels::Kernel kernel =
      kernels::build_memcpy_dma(arch::ClusterConfig::mini(), 1024, 4, 5);
  const sys::SystemResult result = system.run_kernel(kernel, 500);
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.hit_max_cycles);
  ASSERT_EQ(result.jobs.size(), 1U);
  EXPECT_TRUE(result.jobs[0].result.hit_max_cycles);
  EXPECT_EQ(result.jobs[0].result.cycles, 500U);
}

TEST(System, EnergyReportAddsFabricOnTopOfClusterSums) {
  sys::System system(mini_system(2));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  std::vector<sys::JobSpec> jobs;
  jobs.push_back(memcpy_job(ccfg, 1024, 1, 5, "a"));
  jobs.push_back(memcpy_job(ccfg, 1024, 1, 6, "b"));
  const sys::SystemResult result = system.run_jobs(jobs, 5'000'000);
  ASSERT_TRUE(result.ok);

  const power::OperatingPoint op =
      power::make_operating_point(ccfg, phys::Flow::k2D);
  const sys::SystemEnergyReport report =
      sys::account_system(result, op, system.config().icn);
  EXPECT_GT(report.clusters.core_nj, 0.0);
  EXPECT_GT(report.icn_nj, 0.0);  // job b's inputs crossed a mesh hop
  EXPECT_DOUBLE_EQ(
      report.icn_nj,
      static_cast<double>(result.counters.get("sys.icn.byte_hops")) *
          system.config().icn.pj_per_byte_hop * 1e-3);
  EXPECT_GT(report.total_nj(), report.clusters.total_nj());
  EXPECT_GT(report.icn_fraction(), 0.0);
  EXPECT_LT(report.icn_fraction(), 0.5);
  // The cluster aggregate matches summing the per-job reports by hand.
  double core_sum = 0.0;
  for (const sys::JobRecord& job : result.jobs) {
    core_sum += power::account(job.result, op).core_nj;
  }
  EXPECT_DOUBLE_EQ(report.clusters.core_nj, core_sum);
}

TEST(System, ConfigValidatesAndPrints) {
  sys::SystemConfig cfg = mini_system(4);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NE(cfg.to_string().find("clusters=4"), std::string::npos);
  cfg.home_cluster = 9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.home_cluster = 0;
  cfg.num_clusters = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mp3d
