//===- fuzz/LayeredReference.h - Reference layered allocator ----*- C++ -*-===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer loop of the layered allocator as the paper states it,
/// kept as the reference core/Layered must reproduce flag for flag.  Every
/// layer recounts each candidate's candidate degree for the §4.1 bias,
/// solves the layer over the whole problem with the candidate mask
/// (maximumWeightedStableSetChordal for one register, the clique-tree DP
/// otherwise), and the §4.2 fixed point sweeps for saturated cliques once
/// before its Algorithm 3 loop.  core/Layered keeps the candidates and
/// their degrees incrementally instead; tests/core/LayeredReferenceTest.cpp
/// checks that both return the same Allocated flags.
///
//===----------------------------------------------------------------------===//

#ifndef LAYRA_FUZZ_LAYEREDREFERENCE_H
#define LAYRA_FUZZ_LAYEREDREFERENCE_H

#include "core/Layered.h"

namespace layra {

/// Runs the reference layered allocator on chordal single-class \p P.
AllocationResult referenceLayeredAllocate(const AllocationProblem &P,
                                          const LayeredOptions &Options);

} // namespace layra

#endif // LAYRA_FUZZ_LAYEREDREFERENCE_H
