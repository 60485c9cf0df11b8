//===- tests/support/LruCacheTest.cpp - Bounded LRU map tests -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct unit coverage for support/LruCache.h -- the bound behind the
/// batch driver's outcome cache and the on-disk outcome store.  Eviction
/// order is part of the driver's determinism contract, so it is pinned
/// here explicitly instead of only indirectly through driver reports.
///
//===----------------------------------------------------------------------===//

#include "support/LruCache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace layra;

TEST(LruCacheTest, UnboundedByDefault) {
  LruCache<int, int> Cache;
  EXPECT_EQ(Cache.capacity(), 0u);
  for (int I = 0; I < 1000; ++I)
    Cache.insert(I, I * I);
  EXPECT_EQ(Cache.size(), 1000u);
  EXPECT_EQ(Cache.evictions(), 0u);
  ASSERT_NE(Cache.find(999), nullptr);
  EXPECT_EQ(*Cache.find(999), 999 * 999);
  EXPECT_EQ(Cache.find(1000), nullptr);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedInInsertionOrder) {
  LruCache<int, std::string> Cache(3);
  Cache.insert(1, "a");
  Cache.insert(2, "b");
  Cache.insert(3, "c");
  // 1 is the least recently used; the fourth insert must evict exactly it.
  Cache.insert(4, "d");
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.evictions(), 1u);
  EXPECT_EQ(Cache.peek(1), nullptr);
  EXPECT_NE(Cache.peek(2), nullptr);
  EXPECT_NE(Cache.peek(3), nullptr);
  EXPECT_NE(Cache.peek(4), nullptr);
}

TEST(LruCacheTest, FindTouchesRecencyOrder) {
  LruCache<int, int> Cache(2);
  Cache.insert(1, 10);
  Cache.insert(2, 20);
  // Touching 1 makes 2 the LRU entry: the next insert evicts 2, not 1.
  ASSERT_NE(Cache.find(1), nullptr);
  Cache.insert(3, 30);
  EXPECT_NE(Cache.peek(1), nullptr);
  EXPECT_EQ(Cache.peek(2), nullptr);
  EXPECT_NE(Cache.peek(3), nullptr);
}

TEST(LruCacheTest, PeekDoesNotTouchRecencyOrder) {
  LruCache<int, int> Cache(2);
  Cache.insert(1, 10);
  Cache.insert(2, 20);
  // peek(1) must NOT rescue 1: it stays the LRU entry and is evicted.
  ASSERT_NE(Cache.peek(1), nullptr);
  Cache.insert(3, 30);
  EXPECT_EQ(Cache.peek(1), nullptr);
  EXPECT_NE(Cache.peek(2), nullptr);
}

TEST(LruCacheTest, CapacityOneKeepsOnlyNewestEntry) {
  LruCache<int, int> Cache(1);
  Cache.insert(1, 10);
  Cache.insert(2, 20);
  Cache.insert(3, 30);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.evictions(), 2u);
  EXPECT_EQ(Cache.peek(1), nullptr);
  EXPECT_EQ(Cache.peek(2), nullptr);
  ASSERT_NE(Cache.find(3), nullptr);
  EXPECT_EQ(*Cache.find(3), 30);
}

TEST(LruCacheTest, SetCapacityEvictsOverflowImmediately) {
  LruCache<int, int> Cache;
  for (int I = 0; I < 10; ++I)
    Cache.insert(I, I);
  Cache.find(0); // 0 becomes most recent; 1 is now the LRU entry.
  Cache.setCapacity(2);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.evictions(), 8u);
  // Survivors: the two most recently used entries (0 by the touch, 9 by
  // insertion).
  EXPECT_NE(Cache.peek(0), nullptr);
  EXPECT_NE(Cache.peek(9), nullptr);
  EXPECT_EQ(Cache.peek(8), nullptr);
}

TEST(LruCacheTest, SetCapacityZeroRemovesBound) {
  LruCache<int, int> Cache(2);
  Cache.insert(1, 1);
  Cache.insert(2, 2);
  Cache.setCapacity(0);
  for (int I = 3; I <= 50; ++I)
    Cache.insert(I, I);
  EXPECT_EQ(Cache.size(), 50u);
  EXPECT_EQ(Cache.evictions(), 0u);
}

TEST(LruCacheTest, FindPointerStableUntilEviction) {
  LruCache<int, std::string> Cache(2);
  Cache.insert(1, "one");
  std::string *P = Cache.find(1);
  ASSERT_NE(P, nullptr);
  Cache.insert(2, "two"); // No eviction at capacity 2.
  EXPECT_EQ(*P, "one");   // std::list nodes do not move.
}

TEST(LruCacheTest, EraseRemovesWithoutCountingAnEviction) {
  std::vector<int> Evicted;
  LruCache<int, int> Cache(2, [&](const int &Key) { Evicted.push_back(Key); });
  Cache.insert(1, 1);
  Cache.insert(2, 2);
  Cache.erase(1);
  Cache.erase(7); // Absent: a no-op.
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.evictions(), 0u);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_EQ(Cache.peek(1), nullptr);
  // The freed slot takes a new entry without evicting 2.
  Cache.insert(3, 3);
  EXPECT_EQ(Cache.evictions(), 0u);
  EXPECT_NE(Cache.peek(2), nullptr);
}

TEST(LruCacheTest, EvictionHookSeesEachEvictedKeyInLruOrder) {
  std::vector<int> Evicted;
  LruCache<int, int> Cache(3, [&](const int &Key) {
    Evicted.push_back(Key);
  });
  for (int I = 1; I <= 3; ++I)
    Cache.insert(I, I);
  Cache.find(1); // Recency, least first: 2, 3, 1.
  Cache.insert(4, 4);
  EXPECT_EQ(Evicted, std::vector<int>({2}));
  Cache.insert(5, 5);
  EXPECT_EQ(Evicted, std::vector<int>({2, 3}));
  // Recency is now 1, 4, 5; shrinking evicts the two oldest in order.
  Cache.setCapacity(1);
  EXPECT_EQ(Evicted, std::vector<int>({2, 3, 1, 4}));
  EXPECT_EQ(Cache.evictions(), Evicted.size());
  EXPECT_NE(Cache.peek(5), nullptr);
}
