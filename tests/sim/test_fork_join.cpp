// SPDX-License-Identifier: Apache-2.0
// sim::ForkJoin on its own: every call of a run is made exactly once, a
// run calls the job it was given (the pool rewrites its job only when it
// changes), the lowest throwing call's exception reaches the caller, and
// a run after the helpers went to sleep completes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/prng.hpp"
#include "sim/fork_join.hpp"

namespace mp3d::sim {
namespace {

/// Counts its calls per index, each tagged with the job's id.
struct CountingJob {
  u32 id = 0;
  std::array<std::atomic<u32>, ForkJoin::kMaxCalls> calls{};
  std::array<std::atomic<u32>, ForkJoin::kMaxCalls> last_id{};

  void operator()(u32 i) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
    last_id[i].store(id, std::memory_order_relaxed);
  }
  void clear() {
    for (u32 i = 0; i < ForkJoin::kMaxCalls; ++i) {
      calls[i].store(0, std::memory_order_relaxed);
      last_id[i].store(0, std::memory_order_relaxed);
    }
  }
};

/// A job of another type, so a switch to it changes the pool's entry too.
struct OtherJob {
  std::array<std::atomic<u32>, ForkJoin::kMaxCalls> calls{};
  void operator()(u32 i) { calls[i].fetch_add(1, std::memory_order_relaxed); }
};

TEST(ForkJoin, EveryCallRunsOncePerRunAndAJobChangeCallsTheNewJob) {
  Prng prng(0xF0F0ULL);
  for (u32 threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ForkJoin pool(threads - 1);
    ASSERT_EQ(pool.threads(), threads);
    CountingJob a;
    a.id = 1;
    CountingJob b;
    b.id = 2;
    OtherJob other;
    for (int run = 0; run < 10000; ++run) {
      const u32 count = 1 + static_cast<u32>(prng.next_u64() % ForkJoin::kMaxCalls);
      const u64 pick = prng.next_u64() % 3;
      if (pick == 2) {
        for (auto& n : other.calls) {
          n.store(0, std::memory_order_relaxed);
        }
        pool.run(count, other);
        for (u32 i = 0; i < ForkJoin::kMaxCalls; ++i) {
          ASSERT_EQ(other.calls[i].load(), i < count ? 1U : 0U) << "run " << run << " call " << i;
        }
        continue;
      }
      CountingJob& job = pick == 0 ? a : b;
      CountingJob& idle = pick == 0 ? b : a;
      job.clear();
      idle.clear();
      pool.run(count, job);
      for (u32 i = 0; i < ForkJoin::kMaxCalls; ++i) {
        ASSERT_EQ(job.calls[i].load(), i < count ? 1U : 0U) << "run " << run << " call " << i;
        ASSERT_EQ(idle.calls[i].load(), 0U) << "run " << run << " called the previous job";
        if (i < count) {
          ASSERT_EQ(job.last_id[i].load(), job.id);
        }
      }
    }
  }
}

TEST(ForkJoin, TheLowestThrowingCallsExceptionReachesTheCaller) {
  ForkJoin pool(3);
  auto throwing = [](u32 i) {
    if (i == 2 || i == 5) {
      throw std::runtime_error("call " + std::to_string(i));
    }
  };
  for (int round = 0; round < 20; ++round) {
    try {
      pool.run(8, throwing);
      FAIL() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "call 2");
    }
    // The next run works and throws nothing left over.
    std::array<std::atomic<u32>, 8> calls{};
    auto counting = [&](u32 i) { calls[i].fetch_add(1); };
    EXPECT_NO_THROW(pool.run(8, counting));
    for (const auto& n : calls) {
      EXPECT_EQ(n.load(), 1U);
    }
  }
}

TEST(ForkJoin, ARunAfterTheHelpersWentToSleepCompletes) {
  ForkJoin pool(3);
  CountingJob job;
  for (int round = 0; round < 5; ++round) {
    // Far past the spin window (tens of µs): every helper blocks.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    job.clear();
    pool.run(ForkJoin::kMaxCalls, job);
    for (const auto& n : job.calls) {
      EXPECT_EQ(n.load(), 1U);
    }
  }
}

}  // namespace
}  // namespace mp3d::sim
