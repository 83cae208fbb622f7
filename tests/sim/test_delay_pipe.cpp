// SPDX-License-Identifier: Apache-2.0
#include "sim/delay_pipe.hpp"

#include <gtest/gtest.h>

#include "sim/ring_fifo.hpp"

namespace mp3d::sim {
namespace {

TEST(DelayPipe, ItemsArriveAfterLatency) {
  DelayPipe<int> pipe(3);
  pipe.push(10, 42);
  EXPECT_FALSE(pipe.ready(10));
  EXPECT_FALSE(pipe.ready(12));
  ASSERT_TRUE(pipe.ready(13));
  EXPECT_EQ(pipe.pop(13), 42);
  EXPECT_TRUE(pipe.empty());
}

TEST(DelayPipe, ZeroLatencyImmediatelyReady) {
  DelayPipe<int> pipe(0);
  pipe.push(5, 1);
  EXPECT_TRUE(pipe.ready(5));
}

TEST(DelayPipe, PreservesFifoOrder) {
  DelayPipe<int> pipe(2);
  pipe.push(0, 1);
  pipe.push(0, 2);
  pipe.push(1, 3);
  ASSERT_TRUE(pipe.ready(2));
  EXPECT_EQ(pipe.pop(2), 1);
  EXPECT_EQ(pipe.pop(2), 2);
  EXPECT_FALSE(pipe.ready(2));
  EXPECT_EQ(pipe.pop(3), 3);
}

TEST(DelayPipe, SizeTracking) {
  DelayPipe<int> pipe(1);
  EXPECT_EQ(pipe.size(), 0U);
  pipe.push(0, 7);
  pipe.push(0, 8);
  EXPECT_EQ(pipe.size(), 2U);
  pipe.clear();
  EXPECT_TRUE(pipe.empty());
}

TEST(BoundedQueue, CapacityEnforced) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, FrontPeek) {
  BoundedQueue<int> q(4);
  q.try_push(9);
  EXPECT_EQ(q.front(), 9);
  EXPECT_EQ(q.size(), 1U);
}

// ---- ring storage --------------------------------------------------------

TEST(RingFifo, InterleavedPushPopWrapsTheRing) {
  RingFifo<int> ring(4);
  ASSERT_EQ(ring.slots(), 4U);
  // Hold two to three items while 48 pass through: the head and tail run
  // past the four slots a dozen times without the ring growing.
  int next_in = 0;
  int next_out = 0;
  ring.push_back(next_in++);
  ring.push_back(next_in++);
  while (next_in < 48) {
    ring.push_back(next_in++);
    EXPECT_EQ(ring.size(), 3U);
    EXPECT_EQ(ring.back(), next_in - 1);
    EXPECT_EQ(ring.front(), next_out);
    EXPECT_EQ(ring.pop_front(), next_out++);
  }
  EXPECT_EQ(ring.slots(), 4U);
  while (!ring.empty()) {
    EXPECT_EQ(ring.pop_front(), next_out++);
  }
  EXPECT_EQ(next_out, 48);
}

TEST(RingFifo, GrowsWhileWrappedAndKeepsOrder) {
  RingFifo<int> ring;
  EXPECT_EQ(ring.slots(), 0U);
  // Wrap the head first so growth has to unroll a split ring.
  for (int i = 0; i < 3; ++i) {
    ring.push_back(-1);
    ring.pop_front();
  }
  for (int i = 0; i < 40; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.size(), 40U);
  EXPECT_EQ(ring.slots(), 64U);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(ring.pop_front(), i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(DelayPipe, InterleavedTrafficWrapsWithoutReordering) {
  // A latency-2 pipe fed one item per cycle holds at most three: its
  // four-slot ring wraps many times over 64 items.
  DelayPipe<int> pipe(2);
  int next_out = 0;
  for (Cycle now = 0; now < 64 + 2; ++now) {
    if (now < 64) {
      pipe.push(now, static_cast<int>(now));
    }
    while (pipe.ready(now)) {
      EXPECT_EQ(pipe.front_ready_at(), static_cast<Cycle>(next_out) + 2);
      EXPECT_EQ(pipe.pop(now), next_out++);
    }
    EXPECT_LE(pipe.size(), 2U);
  }
  EXPECT_EQ(next_out, 64);
  EXPECT_TRUE(pipe.empty());
}

TEST(DelayPipe, BlockedFrontGrowsPastLatencyThenDrainsInOrder) {
  // Endpoint back-pressure holds the front, but flits keep arriving behind
  // it: the pipe must hold far more than `latency` items.
  constexpr u32 kLatency = 3;
  DelayPipe<int> pipe(kLatency);
  constexpr int kItems = 4 * kLatency + 5;
  for (int i = 0; i < kItems; ++i) {
    pipe.push(static_cast<Cycle>(i), i);
  }
  EXPECT_EQ(pipe.size(), static_cast<std::size_t>(kItems));
  const Cycle late = 1000;
  Cycle last_ready = 0;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(pipe.ready(late));
    EXPECT_GE(pipe.front_ready_at(), last_ready);
    last_ready = pipe.front_ready_at();
    EXPECT_EQ(pipe.front(), i);
    EXPECT_EQ(pipe.pop(late), i);
  }
  EXPECT_TRUE(pipe.empty());
}

TEST(DelayPipe, ReusableAfterClear) {
  DelayPipe<int> pipe(1);
  for (int i = 0; i < 6; ++i) {
    pipe.push(0, i);
  }
  pipe.clear();
  EXPECT_TRUE(pipe.empty());
  EXPECT_FALSE(pipe.ready(100));
  // A cleared pipe starts over: earlier ready cycles no longer constrain it.
  pipe.push(0, 7);
  pipe.push(1, 8);
  EXPECT_EQ(pipe.size(), 2U);
  EXPECT_EQ(pipe.front_ready_at(), 1U);
  EXPECT_EQ(pipe.pop(1), 7);
  EXPECT_EQ(pipe.pop(2), 8);
}

TEST(BoundedQueue, NonPowerOfTwoCapacityIsExactAcrossWraps) {
  // Capacity 3 sits in a four-slot ring; full() must trip at exactly 3
  // however far the ring indices have run.
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3U);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (q.try_push(next_in)) {
      ++next_in;
    }
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), 3U);
    EXPECT_EQ(q.front(), next_out);
    // Drain one or two so the fill level entering the next round varies.
    const int drain = 1 + round % 2;
    for (int i = 0; i < drain; ++i) {
      EXPECT_EQ(q.pop(), next_out++);
    }
    EXPECT_FALSE(q.full());
  }
  while (!q.empty()) {
    EXPECT_EQ(q.pop(), next_out++);
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_GE(next_in, 12);  // at least three times the ring's four slots
}

TEST(BoundedQueue, ReusableAfterClear) {
  BoundedQueue<int> q(3);
  q.try_push(1);
  q.try_push(2);
  q.pop();
  q.try_push(3);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  for (int i = 10; i < 13; ++i) {
    EXPECT_TRUE(q.try_push(i));
  }
  EXPECT_FALSE(q.try_push(13));
  for (int i = 10; i < 13; ++i) {
    EXPECT_EQ(q.pop(), i);
  }
}

}  // namespace
}  // namespace mp3d::sim
