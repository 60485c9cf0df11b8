//===- tests/support/BitVectorTest.cpp - BitVector unit tests -------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(BitVectorTest, SetTestReset) {
  BitVector B(130);
  EXPECT_FALSE(B.test(0));
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_FALSE(B.test(63));
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
}

TEST(BitVectorTest, UnionReportsChange) {
  BitVector A(70), B(70);
  B.set(69);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // Idempotent.
  EXPECT_TRUE(A.test(69));
}

TEST(BitVectorTest, Subtract) {
  BitVector A(10), B(10);
  A.set(1);
  A.set(2);
  B.set(2);
  A.subtract(B);
  EXPECT_TRUE(A.test(1));
  EXPECT_FALSE(A.test(2));
}

TEST(BitVectorTest, ForEachVisitsInOrder) {
  BitVector B(200);
  B.set(3);
  B.set(64);
  B.set(199);
  std::vector<unsigned> Seen;
  B.forEach([&](std::size_t Bit) { Seen.push_back(static_cast<unsigned>(Bit)); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{3, 64, 199}));
  EXPECT_EQ(B.toIndices(), Seen);
}

TEST(BitVectorTest, ClearAndEquality) {
  BitVector A(65), B(65);
  A.set(64);
  EXPECT_FALSE(A == B);
  A.clear();
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.count(), 0u);
}

TEST(BitVectorTest, ResizePreservesBitsAndClearsDroppedTail) {
  BitVector B(10);
  B.set(1);
  B.set(9);
  B.resize(200);
  EXPECT_EQ(B.size(), 200u);
  EXPECT_TRUE(B.test(1));
  EXPECT_TRUE(B.test(9));
  EXPECT_FALSE(B.test(199));
  B.set(150);
  // Shrinking drops bits past the new size; growing back must not
  // resurrect them (llvm::BitVector semantics).
  B.resize(100);
  EXPECT_EQ(B.size(), 100u);
  EXPECT_EQ(B.count(), 2u);
  B.resize(200);
  EXPECT_FALSE(B.test(150));
  EXPECT_EQ(B.count(), 2u);
}
