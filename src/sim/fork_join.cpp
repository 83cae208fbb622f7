// SPDX-License-Identifier: Apache-2.0
#include "sim/fork_join.hpp"

#include <sched.h>

#include <algorithm>

#include "common/assert.hpp"

namespace mp3d::sim {

namespace {

/// Spin iterations before a waiting thread blocks: about 37 µs on a Xeon
/// whose pause takes 18 ns, several steps of the largest cluster, so a
/// helper blocks only between runs or when the caller steps in order.
constexpr u32 kSpins = 1U << 11;

void relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

thread_local u32 t_budget = 0;  ///< 0: not set, use the CPU count

}  // namespace

u32 affinity_cpu_count() {
  static const u32 count = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      return hw == 0 ? 1U : static_cast<u32>(hw);
    }
    const int n = CPU_COUNT(&set);
    return n < 1 ? 1U : static_cast<u32>(n);
  }();
  return count;
}

u32 host_thread_budget() { return t_budget != 0 ? t_budget : affinity_cpu_count(); }

void set_host_thread_budget(u32 threads) { t_budget = threads < 1 ? 1 : threads; }

ForkJoin::ForkJoin(u32 helpers) : threads_(helpers + 1) {
  MP3D_ASSERT(helpers < kMaxCalls);
  helpers_.reserve(helpers);
  for (u32 k = 1; k <= helpers; ++k) {
    helpers_.emplace_back([this, k] { helper(k); });
  }
}

ForkJoin::~ForkJoin() {
  stopping_ = true;
  generation_.fetch_add(1);
  generation_.notify_all();
  for (std::thread& t : helpers_) {
    t.join();
  }
}

// The waits below spin, then block. Their flags are sequentially
// consistent, so the side that changes the awaited value and then reads
// the flag as clear knows the waiter will see the change before it
// blocks: no wake-up is lost.

bool ForkJoin::make_call(u64 run, u32 i) {
  Slot& slot = slots_[i];
  u64 claimed = slot.claimed.load(std::memory_order_acquire);
  // A call is claimed at most once per run, and a thread late for a run
  // (claimed >= run) leaves it alone.
  if (claimed >= run || !slot.claimed.compare_exchange_strong(claimed, run)) {
    return false;
  }
  try {
    entry_(job_, i);
  } catch (...) {
    errors_[i] = std::current_exception();
  }
  slot.done.store(run);
  if (caller_sleeping_.load()) {
    finished_.fetch_add(1);
    finished_.notify_one();
  }
  return true;
}

void ForkJoin::helper(u32 k) {
  u32 seen = 0;
  for (;;) {
    u32 generation = generation_.load(std::memory_order_acquire);
    for (u32 i = 0; generation == seen && i < kSpins; ++i) {
      relax();
      generation = generation_.load(std::memory_order_acquire);
    }
    if (generation == seen) {
      sleeping_helpers_.fetch_add(1);
      while ((generation = generation_.load()) == seen) {
        generation_.wait(seen);
      }
      sleeping_helpers_.fetch_sub(1);
    }
    seen = generation;
    if (stopping_.load()) {
      return;
    }
    // The run's job is set before its number is published, and stays until
    // every call of it is done: only a claimed call reads it. A helper late
    // for a run finds every call below that run's count claimed.
    const u64 word = run_.load(std::memory_order_acquire);
    const u64 run = word >> kCountBits;
    const u32 count = static_cast<u32>(word & ((1U << kCountBits) - 1));
    for (u32 i = k; i < count; i += threads_) {
      if (!make_call(run, i)) {
        break;  // taken by the caller
      }
    }
  }
}

void ForkJoin::fork(Entry entry, void* job, u32 count) {
  MP3D_ASSERT(count <= kMaxCalls);
  if (entry_ != entry) {
    entry_ = entry;
  }
  if (job_ != job) {
    job_ = job;
  }
  const u64 run = (run_.load(std::memory_order_relaxed) >> kCountBits) + 1;
  run_.store(run << kCountBits | count, std::memory_order_release);
  generation_.store(static_cast<u32>(run));
  if (sleeping_helpers_.load() != 0) {
    generation_.notify_all();
  }
  for (u32 i = 0; i < count; i += threads_) {
    make_call(run, i);
  }
  // Make the calls no helper has begun.
  for (u32 i = 0; i < count; ++i) {
    if (i % threads_ != 0) {
      make_call(run, i);
    }
  }
  const auto all_done = [&] {
    for (u32 i = 0; i < count; ++i) {
      if (slots_[i].done.load() != run) {
        return false;
      }
    }
    return true;
  };
  bool done = all_done();
  for (u32 i = 0; !done && i < kSpins; ++i) {
    relax();
    done = all_done();
  }
  if (!done) {
    caller_sleeping_.store(true);
    for (;;) {
      const u32 finished = finished_.load();
      if (all_done()) {
        break;
      }
      finished_.wait(finished);
    }
    caller_sleeping_.store(false);
  }
  for (u32 i = 0; i < count; ++i) {
    if (errors_[i]) {
      const std::exception_ptr first = errors_[i];
      std::fill(std::begin(errors_), std::end(errors_), nullptr);
      std::rethrow_exception(first);
    }
  }
}

}  // namespace mp3d::sim
