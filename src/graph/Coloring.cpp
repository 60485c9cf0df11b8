//===- graph/Coloring.cpp - Graph coloring checks -------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Coloring.h"

using namespace layra;

bool layra::isProperColoring(const Graph &G,
                             const std::vector<unsigned> &Colors) {
  assert(Colors.size() == G.numVertices() && "one color slot per vertex");
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    if (Colors[V] == kNoColor)
      continue;
    for (VertexId U : G.neighbors(V))
      if (U > V && Colors[U] == Colors[V])
        return false;
  }
  return true;
}
