// SPDX-License-Identifier: Apache-2.0
// Host threads for one model step: the CPU count, each thread's budget of
// host threads, and a fork-join pool.
//
// Every place that starts host threads splits its calling thread's budget
// among them: a sweep's P workers get budget / P each, a System's T job
// pool threads budget / T each, and a Cluster steps its groups on at
// most its budget's threads. So nested pools never stack threads beyond
// the CPUs the process may run on.
//
// ForkJoin runs a set of calls on a fixed set of threads, the caller
// being one of them, once per simulated cycle. A fork and a join each
// cost about a cache-line round trip while the helpers spin; a helper
// that has waited longer than a short spin blocks instead, and so does the
// caller at the join. The threads claim the calls one at a time, so a
// helper that is not running when a fork comes in leaves the calls to the
// others: on a busy host a cycle runs at one thread's speed instead of
// waiting for the OS to schedule every helper.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <new>
#include <thread>
#include <vector>

#include "common/units.hpp"

namespace mp3d::sim {

/// CPUs in the process's affinity mask (what `nproc` prints), at least 1.
u32 affinity_cpu_count();

/// The calling thread's host-thread budget: how many host threads the work
/// it starts may use at once. Defaults to affinity_cpu_count().
u32 host_thread_budget();
/// Set the calling thread's budget (values below 1 count as 1).
void set_host_thread_budget(u32 threads);

/// Allocator that gives every buffer whole cache lines of its own, for
/// state one host thread writes while others run: no two buffers share a
/// line, so the threads do not steal each other's lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kLine = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  static std::size_t bytes(std::size_t n) { return (n * sizeof(T) + kLine - 1) / kLine * kLine; }
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(bytes(n), std::align_val_t{kLine}));
  }
  void deallocate(T* p, std::size_t n) { ::operator delete(p, bytes(n), std::align_val_t{kLine}); }
  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) { return true; }
};
template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

class ForkJoin {
 public:
  static constexpr u32 kMaxCalls = 16;

  /// Start `helpers` helper threads (they block until the first run()).
  explicit ForkJoin(u32 helpers);
  ~ForkJoin();
  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  /// Threads a run() may use: the helpers and the caller.
  u32 threads() const { return threads_; }

  /// Call job(i) once for every i in [0, count) (count <= kMaxCalls) and
  /// return when every call has. Call i belongs to thread i % threads()
  /// (the caller is thread 0), so the data a call touches stays in one
  /// CPU's cache from run to run. Once the caller has made its own calls
  /// it makes any call no helper has begun, so a helper the OS has not
  /// run in time never holds the caller up: it waits only for calls a
  /// helper has begun. If any call threw, rethrows the exception of the
  /// lowest i that did.
  template <typename Job>
  void run(u32 count, Job& job) {
    fork(&call<Job>, &job, count);
  }

 private:
  using Entry = void (*)(void* job, u32 i);
  template <typename Job>
  static void call(void* job, u32 i) {
    (*static_cast<Job*>(job))(i);
  }

  /// One call's claim and completion, on a cache line of its own: each
  /// holds the number of the last run that claimed or finished the call.
  struct alignas(64) Slot {
    std::atomic<u64> claimed{0};
    std::atomic<u64> done{0};
  };

  /// run_ packs a run's number (the high bits) with its call count.
  static constexpr u32 kCountBits = 5;
  static_assert(kMaxCalls < (1U << kCountBits));

  void fork(Entry entry, void* job, u32 count);
  /// Claim call `i` of run `run` and make it; false if it was claimed.
  bool make_call(u64 run, u32 i);
  void helper(u32 k);

  const u32 threads_;
  /// The job, rewritten only when a run brings another one, so a job that
  /// stays the same from run to run leaves this line in the helpers'
  /// caches. A helper reads it only in a call it claimed, which the caller
  /// waits for before it may change it.
  Entry entry_ = nullptr;
  void* job_ = nullptr;
  /// Set by the destructor before its last generation bump; a helper may
  /// read it while finishing an earlier run, so it is atomic.
  std::atomic<bool> stopping_{false};
  /// What the helpers wait on: the low bits of the run number, bumped by
  /// each fork after the run is set up.
  alignas(64) std::atomic<u32> generation_{0};
  /// The current run's number (1, 2, ...) << kCountBits | its call count,
  /// so a helper reads both in one load and never looks past the count.
  std::atomic<u64> run_{0};
  std::atomic<u32> sleeping_helpers_{0};
  /// Bumped by a finished call while the caller sleeps in the join.
  alignas(64) std::atomic<u32> finished_{0};
  std::atomic<bool> caller_sleeping_{false};
  Slot slots_[kMaxCalls];
  std::exception_ptr errors_[kMaxCalls];  ///< per call, set by a throwing call
  std::vector<std::thread> helpers_;
};

}  // namespace mp3d::sim
