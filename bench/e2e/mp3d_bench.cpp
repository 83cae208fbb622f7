// SPDX-License-Identifier: Apache-2.0
// mp3d_bench: the end-to-end benchmark of the simulator. It measures how
// fast the simulator runs (host time) and what it reports for the modelled
// MemPool-3D machine (simulated cycles and energy), end to end and layer by
// layer. README.md next to this file lists every metric and workload.
//
// One binary, two roles:
//   parent  spawns one child process per (rep, workload), one at a time,
//           round-robin over the selected workloads; collects each child's
//           numbers and peak RSS (wait4); checks correctness; prints every
//           metric by name with its unit. The last stdout line is one JSON
//           object {correct, attempted, failed, metrics}.
//   child   (--rep) builds, runs, verifies and costs one workload once, in
//           a fresh process, and prints its numbers as "key value" lines.
//
// Every layer is timed from outside, around the public call into it:
// kernels/isa (kernel build), arch::Cluster (construct, load_program + init,
// run, verify), sys::System::run_jobs, and phys/power (operating points and
// energy accounting). Timed reps run with host profiling off; one traced
// rep per workload adds the step profiler and host spans.
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cluster.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "obs/trace.hpp"
#include "phys/paper_ref.hpp"
#include "power/operating_point.hpp"
#include "power/report.hpp"
#include "prof/export.hpp"
#include "prof/profile.hpp"
#include "sys/energy.hpp"
#include "sys/system.hpp"

extern char** environ;

namespace {

using namespace mp3d;
using Clock = std::chrono::steady_clock;
using Numbers = std::map<std::string, double>;

constexpr u64 kMaxCycles = 200'000'000;
constexpr u32 kProfStride = 64;  ///< the traced rep's step-profiler stride
constexpr int kMinReps = 3;      ///< timed reps per workload, at least

/// The speed of a shared machine drifts by tens of percent over minutes,
/// with every process on it. Each rep therefore also times a fixed loop
/// that runs no simulator code (probe_s), just before and just after its
/// work, and reports host times in reference seconds: measured seconds x
/// kProbeRefS / the rep's probe time. kProbeRefS is the probe's median
/// time on the machine the README's baselines come from, so there a
/// reference second is about a wall second.
constexpr double kProbeRefS = 0.2;

// ---------------------------------------------------------------- workloads

// Why each workload is here is recorded in README.md and BENCHMARK.json.
const std::vector<std::string> kWorkloads = {"matmul_4mib", "axpy_dma_bw8",
                                             "axpy_farmem", "system_mixed_4c"};

bool is_system(const std::string& workload) { return workload == "system_mixed_4c"; }

/// The paper's headline experiment: matmul on the 256-core cluster with
/// 4 MiB of L1 at 16 B/cycle. Only this workload has a paper reference.
bool is_paper_point(const std::string& workload) { return workload == "matmul_4mib"; }

arch::ClusterConfig cluster_config(const std::string& workload) {
  if (workload == "matmul_4mib") {
    arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(4));
    cfg.gmem_bytes_per_cycle = 16;
    return cfg;
  }
  arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
  cfg.gmem_bytes_per_cycle = 8;
  if (workload == "axpy_farmem") {
    cfg.gmem_latency = 262144;
  }
  return cfg;
}

kernels::Kernel cluster_kernel(const std::string& workload,
                               const arch::ClusterConfig& cfg, u64 seed, bool smoke) {
  if (workload == "matmul_4mib") {
    kernels::MatmulParams params;
    params.m = smoke ? 64 : 256;
    params.t = smoke ? 32 : 128;
    return kernels::build_matmul(cfg, params, seed);
  }
  return kernels::build_axpy_staged(cfg, smoke ? 16384 : 2'621'440, 3,
                                    /*use_dma=*/true, /*chunk=*/0, seed);
}

sys::SystemConfig system_config() {
  sys::SystemConfig cfg;
  cfg.num_clusters = 4;
  cfg.cluster = arch::ClusterConfig::mini();
  cfg.policy = sys::SchedPolicy::kLeastLoaded;
  return cfg;
}

/// Jobs alternate a staged matmul (A and B homed and staged in, C staged
/// back out) with a staged multi-round DMA copy, so the icn, the system
/// DMA and the scheduler all carry traffic. Icaches start cold.
std::vector<sys::JobSpec> system_jobs(const arch::ClusterConfig& cfg, u64 seed,
                                      bool smoke) {
  const u32 count = smoke ? 8 : 64;
  const u32 m = smoke ? 32 : 64;
  const u64 staging_base = cfg.gmem_base + MiB(1);
  std::vector<sys::JobSpec> jobs(count);
  for (u32 i = 0; i < count; ++i) {
    sys::JobSpec& job = jobs[i];
    const u64 job_seed = seed * 1000 + i;
    job.input_base = static_cast<u32>(staging_base);
    if (i % 2 == 0) {
      kernels::MatmulParams params;
      params.m = m;
      params.t = 16;
      params.markers = false;
      const u64 mat_bytes = static_cast<u64>(m) * m * 4;
      job.name = "matmul" + std::to_string(i);
      job.kernel = kernels::build_matmul_dma(cfg, params, job_seed);
      job.input_bytes = 2 * mat_bytes;
      job.output_base = static_cast<u32>(staging_base + 2 * mat_bytes);
      job.output_bytes = mat_bytes;
    } else {
      const u32 n = smoke ? 1024 : 8192;
      job.name = "memcpy" + std::to_string(i);
      job.kernel = kernels::build_memcpy_dma(cfg, n, smoke ? 2 : 8, job_seed);
      job.input_bytes = static_cast<u64>(n) * 4;
    }
  }
  return jobs;
}

// ---------------------------------------------------------------- child rep

template <typename Fn>
double seconds_of(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A fixed integer loop with no memory traffic: its time tracks how fast
/// the machine runs right now.
double probe_s() {
  u64 x = 88172645463325252ULL;
  u64 acc = 0;
  const double s = seconds_of([&] {
    for (int i = 0; i < 90'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += (x * 0x9E3779B97F4A7C15ULL) >> (x & 15);
    }
  });
  volatile u64 sink = acc;
  (void)sink;
  return s;
}

/// Times each layer call; in the traced rep it also records the call as a
/// host span (Chrome trace, ts = microseconds since the rep started).
class Spans {
 public:
  explicit Spans(bool record) : trace_(record ? 64 : 1), record_(record) {
    if (record_) {
      track_ = trace_.add_track("host", 1, "rep", 1);
    }
  }

  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    if (!record_) {
      return seconds_of(fn);
    }
    const u32 id = trace_.intern(name);
    trace_.begin(track_, id, micros());
    const double s = seconds_of(fn);
    trace_.end(track_, id, micros());
    return s;
  }

  std::string chrome_json() const { return obs::to_chrome_json(trace_); }

 private:
  u64 micros() const {
    return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - origin_)
                                .count());
  }

  obs::Trace trace_;
  bool record_;
  u32 track_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// What one rep reports to the parent.
struct Rep {
  Numbers num;  ///< the parent adds the rep process's peak_rss_mib
  std::string digest;
  std::string error;  ///< "" = EOC reached and every output verified
  prof::ProfileReport profile;  ///< the traced rep's, in the child only
};

/// FNV-1a over the cycle count and every counter (name and value): equal
/// digests mean the simulation did the same thing.
std::string digest_of(u64 cycles, const sim::CounterSet& counters) {
  u64 h = 14695981039346656037ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  mix(&cycles, sizeof cycles);
  for (const auto& [name, value] : counters.all()) {
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Simulated per-layer metrics. `cl` holds cluster counters summed over
/// every cluster run ("cycles" = cluster-cycles); `sys` the system-level
/// sys.* counters (absent for a bare cluster).
void add_sim_layers(Numbers& out, const sim::CounterSet& cl, const sim::CounterSet& sys,
                    u32 cores_per_cluster, u64 makespan, u32 clusters) {
  const auto c = [&cl](const char* name) { return static_cast<double>(cl.get(name)); };
  const double cycles = c("cycles");
  const double core_cycles = cycles * cores_per_cluster;
  out["sim.core.ipc"] = ratio(c("core.instret"), core_cycles);
  out["sim.core.stall_raw_frac"] = ratio(c("core.stall_raw"), core_cycles);
  out["sim.core.stall_lsu_frac"] = ratio(c("core.stall_lsu_full"), core_cycles);
  out["sim.core.wfi_frac"] = ratio(c("core.wfi_cycles"), core_cycles);
  out["sim.bank.conflict_rate"] = ratio(c("bank.conflicts"), c("bank.accesses"));
  out["sim.bank.conflict_wait_cycles"] = c("bank.conflict_wait_cycles");
  out["sim.noc.global_hop_share"] =
      ratio(c("noc.global_hops"), c("noc.global_hops") + c("noc.local_hops"));
  out["sim.noc.hol_blocked_per_flit"] =
      ratio(c("noc.req_hol_blocked") + c("noc.resp_hol_blocked"),
            c("noc.req_flits") + c("noc.resp_flits"));
  out["sim.gmem.util"] = ratio(c("gmem.busy_cycles"), cycles);
  out["sim.gmem.scalar_stall_cycles"] = c("gmem.scalar_stall_cycles");
  out["sim.gmem.bulk_stall_cycles"] = c("gmem.bulk_stall_cycles");
  out["sim.dma.busy_frac"] = ratio(c("dma.busy_cycles"), cycles);
  out["sim.dma.wakes"] = c("dma.wakes");
  out["sim.icache.miss_rate"] =
      ratio(c("icache.misses"), c("icache.misses") + c("icache.hits"));
  // A bare cluster has no sys.* counters: its System-layer metrics read 0.
  const auto s = [&sys](const char* name) { return static_cast<double>(sys.get(name)); };
  out["sim.sys.icn_byte_hops"] = s("sys.icn.byte_hops");
  out["sim.sys.icn_starved_claims"] = s("sys.icn.starved_claims");
  out["sim.sys.dma_busy_frac"] = ratio(s("sys.dma.busy_cycles"), makespan);
  out["sim.sys.cluster_util"] =
      sys.has("cycles") ? ratio(cycles, static_cast<double>(makespan) * clusters) : 0.0;
}

/// On-die energy, 3D-over-2D gains and the per-component split. `cycles`
/// is the simulated run length both flows are timed over; a nonzero
/// `paper_capacity` compares the gains with the paper's figures there.
void add_energy(Numbers& out, const power::EnergyReport& e2d,
                const power::EnergyReport& e3d, double extra_nj_2d, double extra_nj_3d,
                u64 cycles, u64 paper_capacity) {
  const double nj_2d = e2d.cluster_nj() + extra_nj_2d;
  const double nj_3d = e3d.cluster_nj() + extra_nj_3d;
  out["energy_uj_2d"] = nj_2d * 1e-3;
  out["energy_uj_3d"] = nj_3d * 1e-3;
  out["time_us_2d"] = static_cast<double>(cycles) / e2d.freq_ghz * 1e-3;
  out["time_us_3d"] = static_cast<double>(cycles) / e3d.freq_ghz * 1e-3;
  const double perf_gain = e3d.freq_ghz / e2d.freq_ghz - 1.0;
  const double eff_gain = nj_2d / nj_3d - 1.0;
  out["sim.gain_perf_3d"] = perf_gain;
  out["sim.gain_eff_3d"] = eff_gain;
  double err_pp = 0.0;  // 0 = no paper reference
  for (const phys::paper::GainRef& ref : phys::paper::figures789()) {
    if (ref.capacity == paper_capacity) {
      err_pp = 100.0 * std::max(std::abs(perf_gain - ref.perf_gain_3d_over_2d),
                                std::abs(eff_gain - ref.eff_gain_3d_over_2d));
    }
  }
  out["sim.paper_err_pp"] = err_pp;
  const auto parts_2d = e2d.components();
  const auto parts_3d = e3d.components();
  for (std::size_t i = 0; i < parts_3d.size(); ++i) {
    const std::string& name = parts_3d[i].first;
    const double nj_c2d = parts_2d[i].second;
    const double nj_c3d = parts_3d[i].second;
    out["sim.energy_3d." + name + "_uj"] = nj_c3d * 1e-3;
    out["sim.energy." + name + "_gain_3d"] = nj_c3d > 0.0 ? nj_c2d / nj_c3d - 1.0 : 0.0;
  }
}

void add_profile(Numbers& out, const prof::ProfileReport& report) {
  const double sampled = static_cast<double>(report.sampled_cycles);
  for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
    out[std::string("host.step.") + prof::phase_name(static_cast<prof::Phase>(p)) +
        "_ns"] = ratio(static_cast<double>(report.phase_ns[p]), sampled);
  }
  out["host.step.total_ns"] = ratio(static_cast<double>(report.step_ns), sampled);
}

/// Fold one bare-cluster run's profile into a running sum.
void accumulate(prof::ProfileReport& sum, const prof::ProfileReport& add) {
  sum.stride = add.stride;
  sum.total_cycles += add.total_cycles;
  sum.sampled_cycles += add.sampled_cycles;
  sum.step_ns += add.step_ns;
  for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
    sum.phase_ns[p] += add.phase_ns[p];
  }
}

Rep cluster_rep(const std::string& workload, u64 seed, bool traced, bool smoke,
                      Spans& spans) {
  Rep out;
  arch::ClusterConfig cfg = cluster_config(workload);
  cfg.profiling.stride = traced ? kProfStride : 0;
  kernels::Kernel kernel;
  out.num["build_s"] = spans.time("build", [&] {
    kernel = cluster_kernel(workload, cfg, seed, smoke);
  });
  std::unique_ptr<arch::Cluster> cluster;
  out.num["construct_s"] = spans.time("construct", [&] {
    cluster = std::make_unique<arch::Cluster>(cfg);
  });
  out.num["load_s"] = spans.time("load", [&] {
    cluster->load_program(kernel.program);
    kernel.init(*cluster);
    cluster->warm_icaches();
  });
  arch::RunResult result;
  out.num["run_s"] = spans.time("run", [&] { result = cluster->run(kMaxCycles); });
  out.num["verify_s"] = spans.time("verify", [&] {
    out.error = result.ok() ? kernel.verify(*cluster, result) : "no clean EOC";
  });
  power::EnergyReport e2d;
  power::EnergyReport e3d;
  out.num["power_s"] = spans.time("power", [&] {
    e2d = power::account(result, power::make_operating_point(cfg, phys::Flow::k2D));
    e3d = power::account(result, power::make_operating_point(cfg, phys::Flow::k3D));
  });

  out.digest = digest_of(result.cycles, result.counters);
  out.num["sim_cycles"] = static_cast<double>(result.cycles);
  out.num["cluster_cycles"] = static_cast<double>(result.cycles);
  out.num["ff_cycles"] = static_cast<double>(cluster->fast_forwarded_cycles());
  add_energy(out.num, e2d, e3d, 0.0, 0.0, result.cycles,
             is_paper_point(workload) ? cfg.spm_capacity : 0);
  add_sim_layers(out.num, result.counters, sim::CounterSet{}, cfg.num_cores(),
                 result.cycles, 1);
  if (traced) {
    out.profile = cluster->profiler()->report();
  }
  return out;
}

Rep system_rep(u64 seed, bool traced, bool smoke, Spans& spans) {
  Rep out;
  sys::SystemConfig cfg = system_config();
  cfg.cluster.profiling.stride = traced ? kProfStride : 0;
  std::vector<sys::JobSpec> jobs;
  out.num["build_s"] = spans.time("build", [&] {
    jobs = system_jobs(cfg.cluster, seed, smoke);
  });
  std::unique_ptr<sys::System> system;
  out.num["construct_s"] = spans.time("construct", [&] {
    system = std::make_unique<sys::System>(cfg);
  });
  // run_jobs loads, initialises and verifies each job itself, so those
  // costs land in run_s and verify_s only checks the job records.
  out.num["load_s"] = 0.0;
  const std::vector<sys::JobSpec> bare_jobs = traced ? jobs : std::vector<sys::JobSpec>{};
  sys::SystemResult result;
  out.num["run_s"] = spans.time("run", [&] {
    result = system->run_jobs(std::move(jobs), kMaxCycles);
  });
  out.num["verify_s"] = spans.time("verify", [&] {
    if (!result.ok) {
      out.error = result.deadlock ? "system deadlock" : "system did not finish";
    }
    for (const sys::JobRecord& job : result.jobs) {
      if (!job.ok() && out.error.empty()) {
        out.error = job.name + ": " +
                    (job.verify_error.empty() ? "no clean EOC" : job.verify_error);
      }
    }
  });
  sys::SystemEnergyReport e2d;
  sys::SystemEnergyReport e3d;
  out.num["power_s"] = spans.time("power", [&] {
    e2d = sys::account_system(
        result, power::make_operating_point(cfg.cluster, phys::Flow::k2D), cfg.icn);
    e3d = sys::account_system(
        result, power::make_operating_point(cfg.cluster, phys::Flow::k3D), cfg.icn);
  });

  sim::CounterSet per_cluster;
  for (const sys::JobRecord& job : result.jobs) {
    per_cluster.merge(job.result.counters);
  }
  out.digest = digest_of(result.cycles, result.counters);
  out.num["sim_cycles"] = static_cast<double>(result.cycles);
  out.num["cluster_cycles"] = static_cast<double>(per_cluster.get("cycles"));
  add_energy(out.num, e2d.clusters, e3d.clusters, e2d.icn_nj, e3d.icn_nj, result.cycles, 0);
  add_sim_layers(out.num, per_cluster, result.counters, cfg.cluster.num_cores(),
                 result.cycles, cfg.num_clusters);

  if (traced) {
    // run_jobs loads, runs and verifies every job inside one call. The
    // same jobs, one after another on a bare cluster, time those layers
    // apart; run_jobs minus their sum is the System layer's self time. A
    // cluster's fast-forward tally restarts with every load, so only the
    // bare runs can report it.
    spans.time("bare_cluster_jobs", [&] {
      arch::Cluster bare(cfg.cluster);
      for (const sys::JobSpec& job : bare_jobs) {
        arch::RunResult r;
        std::string err;
        out.num["jobs_load_s"] += seconds_of([&] {
          bare.load_program(job.kernel.program);
          job.kernel.init(bare);
        });
        out.num["jobs_run_s"] += seconds_of([&] { r = bare.run(kMaxCycles); });
        out.num["jobs_verify_s"] += seconds_of([&] {
          err = r.ok() ? job.kernel.verify(bare, r) : "no clean EOC";
        });
        if (!err.empty() && out.error.empty()) {
          out.error = "bare cluster " + job.name + ": " + err;
        }
        out.num["jobs_cycles"] += static_cast<double>(r.cycles);
        out.num["jobs_stepped_cycles"] +=
            static_cast<double>(r.cycles - bare.fast_forwarded_cycles());
        accumulate(out.profile, bare.profiler()->report());
      }
    });
  }
  return out;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  if (!file) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

/// The child: one rep, printed as "key value" lines on stdout. The traced
/// rep also writes its host spans and step profile into `out_dir`.
int child_main(const std::string& workload, u64 seed, bool traced, bool smoke,
               const std::string& out_dir) {
  Spans spans(traced);
  Rep out;
  const double probe_before = probe_s();
  spans.time("rep", [&] {
    out = is_system(workload) ? system_rep(seed, traced, smoke, spans)
                              : cluster_rep(workload, seed, traced, smoke, spans);
  });
  out.num["probe_s"] = 0.5 * (probe_before + probe_s());
  out.num["setup_s"] = out.num["build_s"] + out.num["construct_s"] + out.num["load_s"];
  if (traced) {
    add_profile(out.num, out.profile);
  }
  // Host times (keys ending in _s or _ns) go out in reference seconds; the
  // wall-clock run and setup times are kept beside them.
  out.num["run_wall_s"] = out.num["run_s"];
  out.num["setup_wall_s"] = out.num["setup_s"];
  const double to_reference = kProbeRefS / out.num["probe_s"];
  for (auto& [key, value] : out.num) {
    if ((ends_with(key, "_s") || ends_with(key, "_ns")) && !ends_with(key, "_wall_s") &&
        key != "probe_s") {
      value *= to_reference;
    }
  }
  if (traced) {
    const std::filesystem::path dir(out_dir);
    std::filesystem::create_directories(dir);
    write_file(dir / (workload + ".host_spans.json"), spans.chrome_json());
    write_file(dir / (workload + ".collapsed"), prof::to_collapsed(out.profile));
    write_file(dir / (workload + ".speedscope.json"),
               prof::to_speedscope(out.profile, "mp3d_bench " + workload));
  }
  std::printf("digest %s\n", out.digest.c_str());
  if (!out.error.empty()) {
    std::printf("error %s\n", out.error.c_str());
  }
  for (const auto& [key, value] : out.num) {
    std::printf("%s %.17g\n", key.c_str(), value);
  }
  return 0;
}

// ---------------------------------------------------------------- parent

/// Run one rep in a fresh child process and wait for it to end.
Rep spawn_rep(const std::string& exe, const std::string& workload, u64 seed, bool traced,
              bool smoke, const std::string& out_dir) {
  std::vector<std::string> args = {exe,      "--rep",   "--workload", workload,
                                   "--seed", std::to_string(seed),   "--trace",
                                   traced ? "1" : "0",  "--out",      out_dir};
  if (smoke) {
    args.push_back("--smoke");
  }
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("posix_spawn " + exe + ": " + std::strerror(rc));
  }
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }

  Rep rep;
  rep.num["peak_rss_mib"] = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (key == "digest") {
      rep.digest = value;
    } else if (key == "error") {
      rep.error = value;
    } else {
      rep.num[key] = std::strtod(value.c_str(), nullptr);
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep.error = "rep process failed (status " + std::to_string(status) + ")";
  }
  return rep;
}

double get(const Numbers& num, const std::string& key) {
  const auto it = num.find(key);
  if (it == num.end()) {
    throw std::runtime_error("a rep did not report '" + key + "'");
  }
  return it->second;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every rep of one workload, and the metrics derived from them.
struct WorkloadRuns {
  std::string name;
  std::vector<Rep> timed;
  std::vector<Rep> traced;
  std::string digest;  ///< the first rep's; every rep must match it
  int failed = 0;

  int attempted() const { return static_cast<int>(timed.size() + traced.size()); }

  /// A rep passes when it verified and simulated exactly what the first did.
  void add(Rep rep, bool is_traced) {
    if (digest.empty() && rep.error.empty()) {
      digest = rep.digest;
    }
    if (rep.error.empty() && rep.digest != digest) {
      rep.error = "digest " + rep.digest + " differs from " + digest;
    }
    if (!rep.error.empty()) {
      ++failed;
      std::cerr << "mp3d_bench: " << name << ": " << rep.error << "\n";
    }
    (is_traced ? traced : timed).push_back(std::move(rep));
  }

  std::vector<const Rep*> passed() const {
    std::vector<const Rep*> reps;
    for (const Rep& rep : timed) {
      if (rep.error.empty()) {
        reps.push_back(&rep);
      }
    }
    if (reps.empty()) {
      throw std::runtime_error(name + ": no timed rep passed");
    }
    return reps;
  }

  double median_of(const std::string& key) const {
    std::vector<double> values;
    for (const Rep* rep : passed()) {
      values.push_back(get(rep->num, key));
    }
    return median(values);
  }

  /// The end-to-end metrics BENCHMARK.json gates (see README.md).
  std::vector<Metric> end_to_end() const {
    const Numbers& sim = passed().front()->num;
    const double run_s = median_of("run_s");
    return {
        {"host_mcycles_per_s", get(sim, "cluster_cycles") / run_s * 1e-6, "Mcycle/s"},
        {"run_s", run_s, "s"},
        {"setup_s", median_of("setup_s"), "s"},
        {"peak_rss_mib", median_of("peak_rss_mib"), "MiB"},
        {"sim_cycles", get(sim, "sim_cycles"), "cycles"},
        {"sim_energy_uj_2d", get(sim, "energy_uj_2d"), "uJ"},
        {"sim_energy_uj_3d", get(sim, "energy_uj_3d"), "uJ"},
    };
  }

  /// Printed beside the end-to-end metrics but not gated: the failure
  /// ratio (0 in a passing run) and the simulated times, which are the
  /// cycle count over each flow's fixed frequency.
  std::vector<Metric> info() const {
    const Numbers& sim = passed().front()->num;
    return {
        {"failed_frac", static_cast<double>(failed) / attempted(), "ratio"},
        {"run_wall_s", median_of("run_wall_s"), "s"},
        {"setup_wall_s", median_of("setup_wall_s"), "s"},
        {"probe_s", median_of("probe_s"), "s"},
        {"sim_time_us_2d", get(sim, "time_us_2d"), "us"},
        {"sim_time_us_3d", get(sim, "time_us_3d"), "us"},
    };
  }

  /// Per-layer metrics: host layers from the traced rep against the timed
  /// medians, simulated layers from the counters. A traced rep that failed
  /// its checks still reports numbers; `failed` already counts it.
  std::vector<Metric> per_layer() const {
    if (traced.empty()) {
      throw std::runtime_error(name + ": no traced rep");
    }
    const Numbers& tr = traced.front().num;
    const Numbers& sim = passed().front()->num;
    const double run_s = median_of("run_s");
    const double cycles = get(sim, "cluster_cycles");
    std::vector<Metric> out;
    for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
      const std::string key =
          std::string("host.step.") + prof::phase_name(static_cast<prof::Phase>(p)) + "_ns";
      out.push_back({key, get(tr, key), "ns"});
    }
    out.push_back({"host.step.total_ns", get(tr, "host.step.total_ns"), "ns"});
    // The System's stepped cycles and self time come from the same jobs
    // run on a bare cluster in the traced rep (see system_rep).
    const bool system = is_system(name);
    const double stepped_frac =
        system ? get(tr, "jobs_stepped_cycles") / get(tr, "jobs_cycles")
               : 1.0 - median_of("ff_cycles") / cycles;
    out.push_back({"host.stepped_frac", stepped_frac, "ratio"});
    // Whole-run host time per stepped cycle; above host.step.total_ns by
    // the run loop's own cost (fast-forward oracles, watchdog, dispatch).
    out.push_back({"host.run_ns_per_stepped_cycle", run_s * 1e9 / (cycles * stepped_frac),
                   "ns"});
    const double sys_self_s = system ? get(tr, "run_s") - get(tr, "jobs_load_s") -
                                           get(tr, "jobs_run_s") - get(tr, "jobs_verify_s")
                                     : 0.0;
    out.push_back({"host.sys.self_frac", sys_self_s / get(tr, "run_s"), "ratio"});
    out.push_back({"host.setup.build_s", median_of("build_s"), "s"});
    out.push_back({"host.setup.construct_s", median_of("construct_s"), "s"});
    // run_jobs loads and verifies the System's jobs inside run_s.
    out.push_back({"host.setup.load_s",
                   system ? get(tr, "jobs_load_s") : median_of("load_s"), "s"});
    out.push_back({"host.verify_s",
                   system ? get(tr, "jobs_verify_s") : median_of("verify_s"), "s"});
    out.push_back({"host.power_s", median_of("power_s"), "s"});
    out.push_back({"trace_overhead_frac", get(tr, "run_s") / run_s - 1.0, "ratio"});
    for (const auto& [key, value] : sim) {
      if (key.rfind("sim.", 0) == 0) {
        out.push_back({key, value, sim_unit(key)});
      }
    }
    return out;
  }

  static std::string sim_unit(const std::string& key) {
    if (ends_with(key, "_uj")) return "uJ";
    if (ends_with(key, "_cycles")) return "cycles";
    if (ends_with(key, "_pp")) return "pp";
    if (ends_with(key, "ipc")) return "instr/cycle";
    if (ends_with(key, "byte_hops")) return "byte-hops";
    if (ends_with(key, "_claims") || ends_with(key, "wakes")) return "count";
    return "ratio";
  }
};

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_metrics(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Prefix every metric with the workload name when several share one line.
void append_json(std::string& json, const std::vector<Metric>& metrics,
                 const std::string& prefix) {
  for (const Metric& m : metrics) {
    json += (json.empty() ? "" : ", ") + ("\"" + prefix + m.name + "\": {\"value\": ") +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
}

void write_results(const std::filesystem::path& path, const WorkloadRuns& w, u64 seed,
                   const std::vector<Metric>& metrics) {
  std::string body;
  append_json(body, metrics, "");
  write_file(path, "{\"workload\": \"" + w.name + "\", \"seed\": " + std::to_string(seed) +
                       ", \"digest\": \"" + w.digest + "\", \"attempted\": " +
                       std::to_string(w.attempted()) + ", \"failed\": " +
                       std::to_string(w.failed) + ", \"metrics\": {" + body + "}}\n");
}

struct Options {
  std::vector<std::string> workloads = kWorkloads;
  u64 seed = 1;
  double seconds = 25.0;
  bool trace = true;
  bool smoke = false;
  bool rep = false;
  std::string out_dir;
};

/// Timed reps round-robin over the workloads, at least kMinReps each, until
/// another round would overrun `seconds` per workload; then one traced rep
/// each.
std::vector<WorkloadRuns> measure(const std::string& exe, const Options& opt, u64 seed) {
  std::vector<WorkloadRuns> runs;
  for (const std::string& name : opt.workloads) {
    runs.push_back(WorkloadRuns{name, {}, {}, {}, 0});
  }
  const int min_reps = opt.smoke ? 1 : kMinReps;
  const double budget = opt.smoke ? 0.0 : opt.seconds * static_cast<double>(runs.size());
  double elapsed = 0.0;
  for (int round = 1;; ++round) {
    const double round_s = seconds_of([&] {
      for (WorkloadRuns& w : runs) {
        w.add(spawn_rep(exe, w.name, seed, false, opt.smoke, opt.out_dir), false);
      }
    });
    elapsed += round_s;
    if (round >= min_reps && elapsed + round_s > budget) {
      break;
    }
  }
  if (opt.trace) {
    for (WorkloadRuns& w : runs) {
      w.add(spawn_rep(exe, w.name, seed, true, opt.smoke, opt.out_dir), true);
    }
  }
  return runs;
}

/// --smoke: tiny sizes, one rep, no time budget. Checks that every metric
/// is reported, that a second seed simulates the same cycle count, and
/// that both seeds verify.
int smoke_main(const std::string& exe, const Options& opt) {
  std::map<std::string, double> first_cycles;
  for (const u64 seed : {opt.seed, opt.seed + 1}) {
    for (const WorkloadRuns& w : measure(exe, opt, seed)) {
      // Each throws when a rep left out a number the metric needs.
      w.end_to_end();
      w.per_layer();
      w.info();
      if (w.failed != 0) {
        std::printf("smoke FAILED: %s seed %llu: %d failed reps\n", w.name.c_str(),
                    static_cast<unsigned long long>(seed), w.failed);
        return 1;
      }
      const double cycles = get(w.passed().front()->num, "sim_cycles");
      if (first_cycles.count(w.name) != 0 && first_cycles[w.name] != cycles) {
        std::printf("smoke FAILED: %s: sim_cycles %.0f with seed %llu, %.0f before\n",
                    w.name.c_str(), cycles, static_cast<unsigned long long>(seed),
                    first_cycles[w.name]);
        return 1;
      }
      first_cycles[w.name] = cycles;
      std::printf("smoke %-16s seed %llu: %.0f cycles, digest %s\n", w.name.c_str(),
                  static_cast<unsigned long long>(seed), cycles, w.digest.c_str());
    }
  }
  std::printf("smoke: ok\n");
  return 0;
}

int parent_main(const std::string& exe, const Options& opt) {
  const std::vector<WorkloadRuns> runs = measure(exe, opt, opt.seed);
  std::filesystem::create_directories(opt.out_dir);
  const bool several = runs.size() > 1;
  std::string json;
  int attempted = 0;
  int failed = 0;
  for (const WorkloadRuns& w : runs) {
    attempted += w.attempted();
    failed += w.failed;
    const std::vector<Metric> e2e = w.end_to_end();
    const std::vector<Metric> info = w.info();
    std::vector<Metric> all = e2e;
    all.insert(all.end(), info.begin(), info.end());
    print_metrics(w.name + ": end to end (seed " + std::to_string(opt.seed) + ", " +
                      std::to_string(w.timed.size()) + " timed reps, digest " + w.digest +
                      ")",
                  all);
    std::vector<Metric> layers;
    if (opt.trace) {
      layers = w.per_layer();
      print_metrics(w.name + ": per layer (traced rep)", layers);
      all.insert(all.end(), layers.begin(), layers.end());
    }
    write_results(std::filesystem::path(opt.out_dir) / (w.name + ".json"), w, opt.seed, all);
    append_json(json, opt.trace ? layers : e2e, several ? w.name + "." : "");
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, json.c_str());
  return failed == 0 ? 0 : 1;
}

int usage(const std::string& msg) {
  std::string names;
  for (const std::string& name : kWorkloads) {
    names += " " + name;
  }
  std::fprintf(stderr,
               "mp3d_bench: %s\n"
               "usage: mp3d_bench [--workload NAME|all] [--seed N] [--seconds S]\n"
               "                  [--trace 0|1] [--out DIR] [--smoke]\n"
               "workloads:%s\n",
               msg.c_str(), names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::string exe = std::filesystem::canonical("/proc/self/exe").string();
  opt.out_dir = (std::filesystem::path(exe).parent_path() / "out").string();
  const std::vector<std::string> valued = {"--workload", "--seed", "--seconds", "--trace",
                                           "--out"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rep") {
      opt.rep = true;
      continue;
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (std::find(valued.begin(), valued.end(), arg) == valued.end()) {
      return usage("unknown argument " + arg);
    }
    if (i + 1 >= argc) {
      return usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (value != "all") {
        if (std::find(kWorkloads.begin(), kWorkloads.end(), value) == kWorkloads.end()) {
          return usage("unknown workload " + value);
        }
        opt.workloads = {value};
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else {
      opt.out_dir = value;
    }
  }
  try {
    if (opt.rep) {
      // A rep never outlives the parent that waits for it.
      if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() == 1) {
        return 1;
      }
      return child_main(opt.workloads.front(), opt.seed, opt.trace, opt.smoke, opt.out_dir);
    }
    return opt.smoke ? smoke_main(exe, opt) : parent_main(exe, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mp3d_bench: %s\n", e.what());
    return 1;
  }
}
