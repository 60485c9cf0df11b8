//===- graph/Coloring.h - Graph coloring checks -----------------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coloring checks.  In decoupled register allocation coloring is the
/// *assignment* phase: once the allocation has picked which variables live
/// in registers, the tree scan of paper §1 (core/Assignment.h) colors the
/// induced subgraph with concrete registers.  isProperColoring checks its
/// output.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_GRAPH_COLORING_H
#define LAYRA_GRAPH_COLORING_H

#include "graph/Graph.h"

#include <vector>

namespace layra {

/// A vertex -> color map; kNoColor marks uncolored vertices.
inline constexpr unsigned kNoColor = ~0u;

/// Returns true if no edge of \p G joins two vertices of the same color
/// (vertices colored kNoColor are ignored).
bool isProperColoring(const Graph &G, const std::vector<unsigned> &Colors);

} // namespace layra

#endif // LAYRA_GRAPH_COLORING_H
