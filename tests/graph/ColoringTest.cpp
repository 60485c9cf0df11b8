//===- tests/graph/ColoringTest.cpp - Coloring tests ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Coloring.h"

#include <gtest/gtest.h>

using namespace layra;

TEST(ColoringTest, ImproperColoringDetected) {
  Graph G({0, 0}, {{0, 1}});
  EXPECT_FALSE(isProperColoring(G, {0u, 0u}));
  EXPECT_TRUE(isProperColoring(G, {0u, 1u}));
}
