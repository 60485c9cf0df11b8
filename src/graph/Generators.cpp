//===- graph/Generators.cpp - Random graph generators ---------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"

#include <algorithm>

using namespace layra;

Graph layra::randomChordalGraph(Rng &R, const ChordalGenOptions &Options) {
  unsigned T = std::max(1u, Options.TreeSize);
  // Random labelled tree: node i > 0 attaches to a uniform earlier node.
  std::vector<std::vector<unsigned>> TreeAdj(T);
  for (unsigned Node = 1; Node < T; ++Node) {
    unsigned Parent = static_cast<unsigned>(R.nextBelow(Node));
    TreeAdj[Node].push_back(Parent);
    TreeAdj[Parent].push_back(Node);
  }

  // Each vertex = a random connected subtree grown by frontier expansion.
  unsigned N = Options.NumVertices;
  std::vector<std::vector<unsigned>> SubtreeNodes(N);
  std::vector<std::vector<char>> Contains(N, std::vector<char>(T, 0));
  for (unsigned V = 0; V < N; ++V) {
    unsigned Target = std::max<unsigned>(
        1, static_cast<unsigned>(Options.SubtreeSpread * T *
                                 (0.25 + 1.5 * R.nextDouble())));
    unsigned Seed = static_cast<unsigned>(R.nextBelow(T));
    std::vector<unsigned> Frontier{Seed};
    Contains[V][Seed] = 1;
    SubtreeNodes[V].push_back(Seed);
    while (SubtreeNodes[V].size() < Target && !Frontier.empty()) {
      size_t Pick = static_cast<size_t>(R.nextBelow(Frontier.size()));
      unsigned Node = Frontier[Pick];
      Frontier[Pick] = Frontier.back();
      Frontier.pop_back();
      for (unsigned Next : TreeAdj[Node]) {
        if (Contains[V][Next])
          continue;
        Contains[V][Next] = 1;
        SubtreeNodes[V].push_back(Next);
        Frontier.push_back(Next);
        if (SubtreeNodes[V].size() >= Target)
          break;
      }
    }
  }

  std::vector<Weight> Weights(N);
  for (unsigned V = 0; V < N; ++V)
    Weights[V] = static_cast<Weight>(R.nextInRange(1, Options.MaxWeight));
  // Vertices interfere iff their subtrees share a tree node.  Sweep tree
  // nodes and connect all subtree owners present at each node; two owners
  // sharing several nodes repeat their edge, and the first one counts.
  std::vector<std::vector<VertexId>> Owners(T);
  for (unsigned V = 0; V < N; ++V)
    for (unsigned Node : SubtreeNodes[V])
      Owners[Node].push_back(V);
  std::vector<GraphEdge> Edges;
  for (unsigned Node = 0; Node < T; ++Node)
    for (size_t A = 0; A < Owners[Node].size(); ++A)
      for (size_t B = A + 1; B < Owners[Node].size(); ++B)
        Edges.push_back({Owners[Node][A], Owners[Node][B]});
  removeRepeatedEdges(Edges, N);
  return Graph(std::move(Weights), Edges);
}

Graph layra::randomIntervalGraph(Rng &R, unsigned NumVertices,
                                 unsigned Horizon, unsigned MaxLength,
                                 Weight MaxWeight) {
  assert(Horizon > 0 && MaxLength > 0 && "degenerate interval parameters");
  struct Interval {
    unsigned Lo, Hi;
  };
  std::vector<Interval> Intervals(NumVertices);
  std::vector<Weight> Weights(NumVertices);
  for (unsigned V = 0; V < NumVertices; ++V) {
    unsigned Lo = static_cast<unsigned>(R.nextBelow(Horizon));
    unsigned Len = 1 + static_cast<unsigned>(R.nextBelow(MaxLength));
    Intervals[V] = {Lo, std::min(Horizon, Lo + Len)};
    Weights[V] = static_cast<Weight>(R.nextInRange(1, MaxWeight));
  }
  std::vector<GraphEdge> Edges;
  for (unsigned A = 0; A < NumVertices; ++A)
    for (unsigned B = A + 1; B < NumVertices; ++B)
      if (Intervals[A].Lo < Intervals[B].Hi && Intervals[B].Lo < Intervals[A].Hi)
        Edges.push_back({A, B});
  return Graph(std::move(Weights), Edges);
}

Graph layra::randomGraph(Rng &R, unsigned NumVertices, double EdgeProbability,
                         Weight MaxWeight) {
  std::vector<Weight> Weights(NumVertices);
  for (unsigned V = 0; V < NumVertices; ++V)
    Weights[V] = static_cast<Weight>(R.nextInRange(1, MaxWeight));
  std::vector<GraphEdge> Edges;
  for (unsigned A = 0; A < NumVertices; ++A)
    for (unsigned B = A + 1; B < NumVertices; ++B)
      if (R.nextBool(EdgeProbability))
        Edges.push_back({A, B});
  return Graph(std::move(Weights), Edges);
}
