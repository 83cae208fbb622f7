// SPDX-License-Identifier: Apache-2.0
#include "sim/ring_fifo.hpp"

#include <gtest/gtest.h>

namespace mp3d::sim {
namespace {

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

TEST(RingFifo, PreSizedRingGrowsPastItsSizeInOrder) {
  // A NoC port's ring is sized for a full egress queue plus a full
  // pipeline; head-of-line blocking keeps flits arriving behind a held
  // front, so it must hold far more than that.
  RingFifo<int> ring(3);
  ASSERT_EQ(ring.slots(), 4U);
  constexpr int kItems = 17;
  for (int i = 0; i < kItems; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(kItems));
  EXPECT_EQ(ring.slots(), 32U);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(ring.front(), i);
    EXPECT_EQ(ring.pop_front(), i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingFifo, IndexCountsFromTheFrontAcrossTheWrap) {
  RingFifo<int> ring(4);
  // Run the head to slot 3 so items 1..3 sit in slots 0..2.
  for (int i = 0; i < 3; ++i) {
    ring.push_back(-1);
    ring.pop_front();
  }
  for (int i = 0; i < 4; ++i) {
    ring.push_back(i);
  }
  ASSERT_EQ(ring.slots(), 4U);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring[static_cast<std::size_t>(i)], i);
  }
  ring.pop_front();
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring[2], 3);
}

TEST(RingFifo, ReusableAfterClear) {
  RingFifo<int> ring(4);
  for (int i = 0; i < 6; ++i) {
    ring.push_back(i);
  }
  const std::size_t slots = ring.slots();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0U);
  EXPECT_EQ(ring.slots(), slots) << "a cleared ring keeps its slots";
  // A cleared ring starts over: nothing from before the clear comes back.
  for (int i = 10; i < 13; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.size(), 3U);
  EXPECT_EQ(ring.front(), 10);
  EXPECT_EQ(ring.back(), 12);
  for (int i = 10; i < 13; ++i) {
    EXPECT_EQ(ring.pop_front(), i);
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace mp3d::sim
