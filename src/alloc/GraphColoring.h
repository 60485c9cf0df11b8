//===- alloc/GraphColoring.h - Chaitin-Briggs baseline ----------*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical Chaitin-Briggs optimistic graph-coloring allocator -- the
/// paper's "GC" baseline.  Simplify removes low-degree nodes; when stuck, the
/// node minimising cost/degree is pushed optimistically; select colors the
/// stack top-down and spills optimistic nodes that find no color.  In the
/// decoupled spill-everywhere cost model, spilled vertices are simply
/// removed (their short reload ranges are not re-inserted), matching how the
/// paper evaluates all allocators on a level field.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_ALLOC_GRAPHCOLORING_H
#define LAYRA_ALLOC_GRAPHCOLORING_H

#include "alloc/Allocator.h"

#include <vector>

namespace layra {

/// Simplify and select on \p G with \p R colors: the register of each
/// vertex, ~0u for spilled ones -- GC performs allocation and assignment
/// together.
std::vector<unsigned> chaitinBriggsColoring(const Graph &G, unsigned R);

/// Chaitin-Briggs with optimistic coloring and cost/degree spill choice;
/// allocates exactly the vertices chaitinBriggsColoring colors.
class GraphColoringAllocator : public Allocator {
public:
  using Allocator::allocate;
  AllocationResult allocate(const AllocationProblem &P,
                            SolverWorkspace *WS) override;
  const char *name() const override { return "gc"; }
};

} // namespace layra

#endif // LAYRA_ALLOC_GRAPHCOLORING_H
