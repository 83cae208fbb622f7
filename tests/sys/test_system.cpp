// SPDX-License-Identifier: Apache-2.0
// The multi-cluster System driver: job sharding, timed staging over the
// mesh, up-front rejection of bad staged regions, scheduler policies,
// counter namespacing, determinism across back-to-back runs, the recorded
// schedule of the mixed job batch, the per-job deadlock verdict, job
// isolation, the job pool at every host-thread budget, and system-level
// energy accounting.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/row.hpp"
#include "isa/assembler.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/collector.hpp"
#include "power/energy_model.hpp"
#include "sim/fork_join.hpp"
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

/// A staged memcpy job: the move of the kernel's gmem source vector
/// (written in place by its init hook) from the home cluster is timed
/// over the mesh before the run.
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

/// The batch of staged_job_mix in tests/sim/test_fast_forward.cpp: one
/// more staged copy than there are clusters, each writing a 256-byte slice
/// back through the mesh, with rounds cycling 1, 2, 3 and seeds from 5.
std::vector<sys::JobSpec> staged_copies(const arch::ClusterConfig& cfg, u32 count) {
  std::vector<sys::JobSpec> jobs;
  for (u32 i = 0; i < count; ++i) {
    sys::JobSpec job = memcpy_job(cfg, 1024, 1 + i % 3, 5 + i, "memcpy" + std::to_string(i));
    job.output_base = job.input_base;
    job.output_bytes = 256;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// FNV-1a, fed piece by piece.
struct Fnv {
  u64 h = 14695981039346656037ULL;
  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  template <typename T>
  void mix_value(const T& value) {
    mix(&value, sizeof value);
  }
  void mix_words(const std::vector<u32>& words) { mix(words.data(), words.size() * 4); }
};

/// FNV-1a over every counter's name and value, in name order.
u64 counter_digest(const sim::CounterSet& counters) {
  Fnv fnv;
  for (const auto& [name, value] : counters.all()) {
    fnv.mix(name.data(), name.size());
    fnv.mix_value(value);
  }
  return fnv.h;
}

/// Restores the calling thread's host-thread budget on scope exit.
class BudgetScope {
 public:
  explicit BudgetScope(u32 budget) : saved_(sim::host_thread_budget()) {
    sim::set_host_thread_budget(budget);
  }
  ~BudgetScope() { sim::set_host_thread_budget(saved_); }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  u32 saved_;
};

void expect_same_result(const arch::RunResult& a, const arch::RunResult& b,
                        const std::string& name) {
  EXPECT_EQ(a.cycles, b.cycles) << name;
  EXPECT_EQ(a.eoc, b.eoc) << name;
  EXPECT_EQ(a.deadlock, b.deadlock) << name;
  EXPECT_EQ(a.fault, b.fault) << name;
  EXPECT_EQ(a.hit_max_cycles, b.hit_max_cycles) << name;
  EXPECT_EQ(a.exit_code, b.exit_code) << name;
  EXPECT_EQ(a.core_exit_codes, b.core_exit_codes) << name;
  EXPECT_EQ(a.instret, b.instret) << name;
  EXPECT_EQ(a.console, b.console) << name;
  EXPECT_EQ(a.markers.size(), b.markers.size()) << name;
  EXPECT_TRUE(a.counters == b.counters) << name;
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
}

TEST(System, MatmulRoundTripTimesOutputsBackToTheHomeCluster) {
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
  // Job mm1 ran on cluster 1, one mesh hop from the home cluster, so its
  // transfers cost wire energy.
  const sys::JobRecord& remote = result.jobs[1];
  ASSERT_EQ(remote.cluster, 1U);
  EXPECT_GT(result.counters.get("sys.icn.byte_hops"), 0U);
}

TEST(System, RejectsABadJobListBeforeAnyJobStarts) {
  // The second job's staged region is not whole words, starts below the
  // gmem window, or runs past it (also by a size whose sum with the base
  // wraps): run_jobs throws naming that job before any init hook runs, and
  // the same System then runs a valid list.
  sys::System system(mini_system(2));
  const arch::ClusterConfig& ccfg = system.config().cluster;
  u32 inits = 0;
  const auto jobs = [&]() {
    std::vector<sys::JobSpec> list;
    list.push_back(memcpy_job(ccfg, 1024, 1, 5, "first"));
    list.push_back(memcpy_job(ccfg, 1024, 1, 6, "second"));
    for (sys::JobSpec& job : list) {
      job.kernel.init = [&inits, init = job.kernel.init](arch::Cluster& cluster) {
        ++inits;
        init(cluster);
      };
    }
    return list;
  };
  const u32 top = static_cast<u32>(ccfg.gmem_base + ccfg.gmem_size);
  const std::vector<std::pair<std::string, std::function<void(sys::JobSpec&)>>> cases = {
      {"not whole words", [](sys::JobSpec& job) { job.input_bytes += 2; }},
      {"below the window", [&](sys::JobSpec& job) { job.input_base = ccfg.gmem_base - 4; }},
      {"past the window",
       [&](sys::JobSpec& job) {
         job.output_base = top - 4;
         job.output_bytes = 8;
       }},
      {"wrapping past the window",
       [&](sys::JobSpec& job) {
         job.output_base = top - 4;
         job.output_bytes = ~u64{3};
       }},
  };
  for (const auto& [what, spoil] : cases) {
    SCOPED_TRACE(what);
    std::vector<sys::JobSpec> list = jobs();
    spoil(list[1]);
    try {
      system.run_jobs(list, 5'000'000);
      ADD_FAILURE() << "run_jobs accepted the list";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("job second"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(inits, 0U);
  }
  const sys::SystemResult result = system.run_jobs(jobs(), 5'000'000);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(inits, 2U);
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

TEST(SystemFault, AJobEndsAtItsClustersFault) {
  // Core 0 of one job faults on a misaligned load while its other cores
  // sleep: the job ends on the fault's cycle, as a bare run of it does,
  // not at a deadlock verdict, and the copy beside it runs to a verified
  // end.
  const arch::ClusterConfig ccfg = arch::ClusterConfig::mini();
  const std::string src = ctrl_prelude(ccfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x2002
    lw a0, 0(t1)
park:
    wfi
    j park
)";
  isa::AsmOptions options;
  options.default_base = ccfg.gmem_base;
  kernels::Kernel faulting;
  faulting.name = "misaligned_load";
  faulting.program = isa::assemble(src, options);
  arch::Cluster bare(ccfg);
  bare.load_program(faulting.program);
  const arch::RunResult verdict = bare.run(500'000);
  ASSERT_TRUE(verdict.fault);
  ASSERT_LT(verdict.cycles, 100U);

  sys::System system(mini_system(2));
  std::vector<sys::JobSpec> jobs(1);
  jobs[0].name = faulting.name;
  jobs[0].kernel = faulting;
  jobs.push_back(memcpy_job(ccfg, 1024, 8, 5, "copy"));
  const sys::SystemResult result = system.run_jobs(jobs, 500'000);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.deadlock);
  ASSERT_EQ(result.jobs.size(), 2U);
  const sys::JobRecord& fault = result.jobs[0];
  EXPECT_TRUE(fault.result.fault);
  EXPECT_FALSE(fault.result.deadlock);
  EXPECT_EQ(fault.result.cycles, verdict.cycles);
  EXPECT_EQ(fault.eoc_at, fault.started_at + verdict.cycles);
  EXPECT_NE(fault.result.core_errors[0].find("misaligned lw"), std::string::npos);
  EXPECT_TRUE(result.jobs[1].ok()) << result.jobs[1].verify_error;
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

TEST(SystemIsolation, AJobReadsZeroWhereItsInitWroteNothing) {
  // The first job stores a word to gmem and reads it back, so the store
  // has landed when it ends; the second job, on the same cluster, loads
  // that word without writing it first and exits with what it read. Every
  // job starts from cleared memory, so it reads 0 (a System that left the
  // previous job's memory in place would report 0x5eed).
  const arch::ClusterConfig ccfg = arch::ClusterConfig::mini();
  const std::string cell = std::to_string(ccfg.gmem_base + MiB(2));
  const std::string writer_src = ctrl_prelude(ccfg) + ".equ CELL, " + cell + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    li t2, 0x5eed
    sw t2, 0(t1)
    lw t3, 0(t1)
    sub a0, t3, t2
    li t4, EOC
    sw a0, 0(t4)
park:
    wfi
    j park
)";
  const std::string reader_src = ctrl_prelude(ccfg) + ".equ CELL, " + cell + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, CELL
    lw a0, 0(t1)
    li t4, EOC
    sw a0, 0(t4)
park:
    wfi
    j park
)";
  isa::AsmOptions options;
  options.default_base = ccfg.gmem_base;
  std::vector<sys::JobSpec> jobs(2);
  jobs[0].name = "writer";
  jobs[0].kernel.name = "writer";
  jobs[0].kernel.program = isa::assemble(writer_src, options);
  jobs[1].name = "reader";
  jobs[1].kernel.name = "reader";
  jobs[1].kernel.program = isa::assemble(reader_src, options);
  sys::System system(mini_system(1));
  const sys::SystemResult result = system.run_jobs(jobs, 1'000'000);
  ASSERT_EQ(result.jobs.size(), 2U);
  EXPECT_TRUE(result.jobs[0].ok());
  EXPECT_TRUE(result.jobs[1].result.eoc);
  EXPECT_EQ(result.jobs[1].result.exit_code, 0U);
  EXPECT_TRUE(result.ok);
}

TEST(SystemIsolation, EveryJobMatchesAFreshCluster) {
  // Every job's RunResult inside a System is the one kernels::run_kernel
  // gives on a freshly built cluster: a job needs nothing from the
  // schedule, whichever cluster ran it and whatever ran there before.
  const auto check = [](const sys::SystemConfig& cfg, const std::vector<sys::JobSpec>& jobs) {
    sys::System system(cfg);
    const sys::SystemResult result = system.run_jobs(jobs, 50'000'000);
    ASSERT_TRUE(result.ok);
    ASSERT_EQ(result.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      arch::Cluster fresh(cfg.cluster);
      const arch::RunResult bare = kernels::run_kernel(fresh, jobs[i].kernel, 50'000'000);
      expect_same_result(result.jobs[i].result, bare, jobs[i].name);
    }
  };
  sys::SystemConfig mixed = mini_system(4);
  mixed.policy = sys::SchedPolicy::kLeastLoaded;
  check(mixed, mixed_jobs(mixed.cluster, 8));
  for (const u32 clusters : {1U, 2U, 4U}) {
    sys::SystemConfig copies = mini_system(clusters);
    copies.policy = sys::SchedPolicy::kLeastLoaded;
    check(copies, staged_copies(copies.cluster, clusters + 1));
  }
}

/// What a traced run of the mixed batch leaves behind: the result, every
/// cluster's staged window, and the collector's timeline and trace bytes.
struct Observed {
  sys::SystemResult result;
  std::vector<std::vector<u32>> windows;
  std::string timeline_csv;
  std::string trace_json;
};

Observed observe_mixed_batch(u32 budget, sys::SchedPolicy policy) {
  const BudgetScope scope(budget);
  arch::TelemetryConfig request;
  request.sample_window = 256;
  request.trace = true;
  obs::set_global_request(request);
  obs::set_collect_label("pin");
  Observed out;
  {
    sys::SystemConfig cfg = mini_system(4);
    cfg.policy = policy;
    sys::System system(cfg);
    out.result = system.run_jobs(mixed_jobs(cfg.cluster, 10), 50'000'000);
    // The largest staged window: a matmul's A, B and C.
    const u32 words = 3 * 32 * 32;
    for (u32 k = 0; k < system.num_clusters(); ++k) {
      out.windows.push_back(
          system.cluster(k).read_words(cfg.cluster.gmem_base + MiB(1), words));
    }
  }
  out.timeline_csv = exp::rows_to_csv(obs::collected_timeline_rows());
  out.trace_json = obs::collected_trace_json();
  obs::set_global_request(arch::TelemetryConfig{});
  obs::set_collect_label("");
  return out;
}

TEST(SystemPool, RecordsCountersMemoryAndTelemetryMatchAtEveryBudget) {
  // The same batch at host-thread budgets 1, 2 and 4: the records, the
  // counters, every cluster's staged window and the collected timeline
  // and trace bytes do not depend on which host thread ran which job.
  for (const sys::SchedPolicy policy :
       {sys::SchedPolicy::kLeastLoaded, sys::SchedPolicy::kRoundRobin}) {
    SCOPED_TRACE(sys::to_string(policy));
    const Observed one = observe_mixed_batch(1, policy);
    ASSERT_TRUE(one.result.ok);
    EXPECT_FALSE(one.timeline_csv.empty());
    for (const u32 budget : {2U, 4U}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      const Observed other = observe_mixed_batch(budget, policy);
      expect_same_records(one.result, other.result);
      EXPECT_EQ(one.windows, other.windows);
      EXPECT_EQ(one.timeline_csv, other.timeline_csv);
      EXPECT_EQ(one.trace_json, other.trace_json);
    }
  }
}

TEST(SystemPool, OnePoolClusterKeepsTheRecordsAndMemoryOfLockstep) {
  // At budget 1 one pool cluster runs every job, yet each cluster ends
  // holding the last job the schedule gave it. Six copies of one shape
  // on two clusters write the same words, so every cluster's memory, like
  // the records, matches what the lockstep System (which stepped each job
  // on its own cluster) left: the pinned digest was recorded there.
  const BudgetScope scope(1);
  sys::SystemConfig cfg = mini_system(2);
  cfg.policy = sys::SchedPolicy::kLeastLoaded;
  sys::System system(cfg);
  const sys::SystemResult result = system.run_jobs(staged_copies(cfg.cluster, 6), 50'000'000);
  ASSERT_TRUE(result.ok);
  Fnv fnv;
  fnv.mix_value(result.cycles);
  fnv.mix_value(counter_digest(result.counters));
  for (const sys::JobRecord& job : result.jobs) {
    fnv.mix_value(job.cluster);
    fnv.mix_value(job.assigned_at);
    fnv.mix_value(job.started_at);
    fnv.mix_value(job.eoc_at);
    fnv.mix_value(job.completed_at);
    fnv.mix_value(job.result.cycles);
  }
  const u64 records = fnv.h;
  const arch::ClusterConfig& ccfg = cfg.cluster;
  const u32 page = static_cast<u32>(KiB(64) / 4);
  for (u32 k = 0; k < system.num_clusters(); ++k) {
    fnv.mix_words(system.cluster(k).read_words(ccfg.spm_base, ccfg.spm_capacity / 4));
    fnv.mix_words(system.cluster(k).read_words(ccfg.gmem_base, page));
    fnv.mix_words(system.cluster(k).read_words(ccfg.gmem_base + MiB(1), page));
  }
  EXPECT_EQ(records, 0xf5405dfa7a209af3ULL);
  EXPECT_EQ(fnv.h, 0x386a6f91fa3e7717ULL);
}

TEST(SystemPool, TheRunsCapCutsAJobAsTheLockstepSystemDid) {
  // The second of two staged copies on one cluster starts late, so the
  // run's max_cycles cuts it shorter than its pool run (capped at the
  // run's max_cycles from cycle 0): it is re-run with the cap left, and
  // reports what a bare run with that cap does. Cut while its input is
  // still staging, it never starts, and the cluster holds it loaded and
  // initialised.
  const arch::ClusterConfig ccfg = arch::ClusterConfig::mini();
  const auto jobs = [&]() {
    std::vector<sys::JobSpec> list;
    list.push_back(memcpy_job(ccfg, 1024, 2, 5, "first"));
    list.push_back(memcpy_job(ccfg, 1024, 8, 6, "second"));
    return list;
  };
  sys::System system(mini_system(1));
  const sys::SystemResult full = system.run_jobs(jobs(), 1'000'000);
  ASSERT_TRUE(full.ok);
  const sys::JobRecord& second = full.jobs[1];
  ASSERT_GT(second.started_at, second.assigned_at + 1);

  const u64 left = second.result.cycles / 2;
  const sys::SystemResult cut = system.run_jobs(jobs(), second.started_at + left);
  EXPECT_TRUE(cut.hit_max_cycles);
  EXPECT_TRUE(cut.jobs[0].ok());
  arch::Cluster bare(ccfg);
  bare.load_program(jobs()[1].kernel.program);
  jobs()[1].kernel.init(bare);
  const arch::RunResult capped = bare.run(left);
  ASSERT_TRUE(capped.hit_max_cycles);
  expect_same_result(cut.jobs[1].result, capped, "second");
  EXPECT_EQ(cut.jobs[1].eoc_at, second.started_at + left);

  const sys::SystemResult staging = system.run_jobs(jobs(), second.assigned_at + 1);
  EXPECT_TRUE(staging.hit_max_cycles);
  EXPECT_TRUE(staging.jobs[1].dispatched);
  EXPECT_EQ(staging.jobs[1].started_at, 0U);
  arch::Cluster loaded(ccfg);
  loaded.load_program(jobs()[1].kernel.program);
  jobs()[1].kernel.init(loaded);
  EXPECT_EQ(system.cluster(0).now(), 0U);
  EXPECT_EQ(system.cluster(0).read_words(ccfg.gmem_base + MiB(1), 1024),
            loaded.read_words(ccfg.gmem_base + MiB(1), 1024));
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
