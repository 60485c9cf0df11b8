//===- tests/graph/ChordalTest.cpp - Chordal machinery tests --------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Chordal.h"
#include "graph/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

using namespace layra;

namespace {
/// Reference maximal-clique enumeration (Bron-Kerbosch without pivoting);
/// exponential, for cross-validation on small graphs only.
void bronKerbosch(const Graph &G, std::set<VertexId> R, std::set<VertexId> P,
                  std::set<VertexId> X,
                  std::vector<std::set<VertexId>> &Out) {
  if (P.empty() && X.empty()) {
    Out.push_back(R);
    return;
  }
  std::set<VertexId> PCopy = P;
  for (VertexId V : PCopy) {
    std::set<VertexId> NewR = R;
    NewR.insert(V);
    std::set<VertexId> NewP, NewX;
    for (VertexId U : G.neighbors(V)) {
      if (P.count(U))
        NewP.insert(U);
      if (X.count(U))
        NewX.insert(U);
    }
    bronKerbosch(G, NewR, NewP, NewX, Out);
    P.erase(V);
    X.insert(V);
  }
}

std::vector<std::set<VertexId>> referenceMaximalCliques(const Graph &G) {
  std::set<VertexId> P;
  for (VertexId V = 0; V < G.numVertices(); ++V)
    P.insert(V);
  std::vector<std::set<VertexId>> Out;
  bronKerbosch(G, {}, P, {}, Out);
  return Out;
}

/// The paper's Figure 5 graph: seven vertices a..g with weights
/// 1,2,2,5,2,6,1 and the chordal structure of Figure 4.
Graph figure5Graph() {
  constexpr VertexId A = 0, B = 1, C = 2, D = 3, E = 4, F = 5, H = 6;
  return Graph({1, 2, 2, 5, 2, 6, 1},
               {{A, D}, {A, F}, {D, F}, {D, E}, {E, F},
                {C, D}, {C, E}, {B, C}, {B, H}, {H, C}});
}

/// The chordless cycle C_Length.
Graph cycleGraph(unsigned Length) {
  std::vector<GraphEdge> Edges;
  for (VertexId I = 0; I < Length; ++I)
    Edges.push_back({I, (I + 1) % Length});
  return Graph(std::vector<Weight>(Length, 0), Edges);
}

/// Expects \p Order's later lists and parents to equal a scan of \p G
/// under it: at each position, the neighbors that come later, in neighbor
/// order, and the earliest of them.
void expectLaterListsMatchAScan(const Graph &G, const EliminationOrder &Order,
                                const std::string &What) {
  unsigned N = G.numVertices();
  ASSERT_EQ(Order.Order.size(), N) << What;
  ASSERT_EQ(Order.LaterStart.size(), N + 1) << What;
  ASSERT_EQ(Order.Parent.size(), N) << What;
  EXPECT_EQ(Order.Later.size(), G.numEdges()) << What;
  for (unsigned I = 0; I < N; ++I) {
    std::vector<VertexId> Want;
    VertexId Parent = EliminationOrder::kNoParent;
    for (VertexId U : G.neighbors(Order.Order[I])) {
      if (Order.Position[U] <= I)
        continue;
      Want.push_back(U);
      if (Parent == EliminationOrder::kNoParent ||
          Order.Position[U] < Order.Position[Parent])
        Parent = U;
    }
    NeighborRange Got = Order.laterAt(I);
    EXPECT_EQ(std::vector<VertexId>(Got.begin(), Got.end()), Want)
        << What << ", position " << I;
    EXPECT_EQ(Order.laterOf(Order.Order[I]), Got) << What;
    EXPECT_EQ(Order.Parent[I], Parent) << What << ", position " << I;
  }
}

/// Expects MCS's lists to equal a scan of \p G, and fromOrder over MCS's
/// order to rebuild them exactly.
void expectMcsListsMatchFromOrder(const Graph &G, const std::string &What) {
  EliminationOrder Mcs = maximumCardinalitySearch(G);
  expectLaterListsMatchAScan(G, Mcs, What);
  EliminationOrder Scanned = EliminationOrder::fromOrder(G, Mcs.Order);
  EXPECT_EQ(Scanned.Position, Mcs.Position) << What;
  EXPECT_EQ(Scanned.LaterStart, Mcs.LaterStart) << What;
  EXPECT_EQ(Scanned.Later, Mcs.Later) << What;
  EXPECT_EQ(Scanned.Parent, Mcs.Parent) << What;
}
} // namespace

TEST(ChordalTest, EmptyAndSingletonAreChordal) {
  Graph Empty;
  EXPECT_TRUE(isChordal(Empty));
  Graph One({0}, {});
  EXPECT_TRUE(isChordal(One));
}

TEST(ChordalTest, TriangleIsChordalC4IsNot) {
  Graph Triangle({0, 0, 0}, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_TRUE(isChordal(Triangle));

  Graph C4({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_FALSE(isChordal(C4));

  // Adding a chord makes it chordal again.
  Graph C4Chord({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  EXPECT_TRUE(isChordal(C4Chord));
}

TEST(ChordalTest, C5IsNotChordal) {
  std::vector<GraphEdge> Cycle;
  for (VertexId I = 0; I < 5; ++I)
    Cycle.push_back({I, (I + 1) % 5});
  Graph C5(std::vector<Weight>(5, 0), Cycle);
  EXPECT_FALSE(isChordal(C5));
}

TEST(ChordalTest, Figure4GraphIsChordalWithExpectedPeo) {
  Graph G = figure5Graph();
  EXPECT_TRUE(isChordal(G));
  // The paper's example PEO [a, f, d, e, b, g, c] must validate.
  EliminationOrder PaperPeo =
      EliminationOrder::fromOrder(G, {0, 5, 3, 4, 1, 6, 2});
  EXPECT_TRUE(isPerfectEliminationOrder(G, PaperPeo));
  // A clearly wrong order: eliminate d first (neighbors a,f,e,c are not a
  // clique: a-e missing).
  EliminationOrder Bad =
      EliminationOrder::fromOrder(G, {3, 0, 5, 4, 1, 6, 2});
  EXPECT_FALSE(isPerfectEliminationOrder(G, Bad));
}

TEST(ChordalTest, McsAndLexBfsProducePeosOnRandomChordalGraphs) {
  Rng R(101);
  for (int Round = 0; Round < 30; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 10 + static_cast<unsigned>(R.nextBelow(50));
    Opt.TreeSize = 10 + static_cast<unsigned>(R.nextBelow(40));
    Graph G = randomChordalGraph(R, Opt);
    EXPECT_TRUE(isPerfectEliminationOrder(G, maximumCardinalitySearch(G)));
    EXPECT_TRUE(isPerfectEliminationOrder(G, lexBfs(G)));
  }
}

TEST(ChordalTest, McsDetectsNonChordalViaFailedPeo) {
  Rng R(202);
  unsigned NonChordalSeen = 0;
  for (int Round = 0; Round < 20; ++Round) {
    Graph G = randomGraph(R, 12, 0.3, 10);
    bool Chordal = isChordal(G);
    // Cross-check with a direct definition-based test: every cycle of
    // length 4 found as (a-b, b-c, c-d, d-a) without chords disproves
    // chordality.  We only verify one direction: if we find a chordless
    // 4-cycle, isChordal must have said false.
    bool FoundChordless4Cycle = false;
    for (VertexId A = 0; A < G.numVertices(); ++A)
      for (VertexId B : G.neighbors(A))
        for (VertexId C : G.neighbors(B))
          for (VertexId D : G.neighbors(C)) {
            if (A == C || B == D || A == D)
              continue;
            if (G.hasEdge(D, A) && !G.hasEdge(A, C) && !G.hasEdge(B, D))
              FoundChordless4Cycle = true;
          }
    if (FoundChordless4Cycle) {
      EXPECT_FALSE(Chordal);
      ++NonChordalSeen;
    }
  }
  EXPECT_GT(NonChordalSeen, 0u) << "test never exercised the negative case";
}

TEST(ChordalTest, MaximalCliquesMatchBronKerboschOnRandomChordalGraphs) {
  Rng R(303);
  for (int Round = 0; Round < 25; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 4 + static_cast<unsigned>(R.nextBelow(14));
    Opt.TreeSize = 4 + static_cast<unsigned>(R.nextBelow(12));
    Graph G = randomChordalGraph(R, Opt);
    EliminationOrder Peo = maximumCardinalitySearch(G);
    CliqueCover Cover = maximalCliquesChordal(G, Peo);

    std::vector<std::set<VertexId>> Reference = referenceMaximalCliques(G);
    std::set<std::set<VertexId>> RefSet(Reference.begin(), Reference.end());
    std::set<std::set<VertexId>> Got;
    for (unsigned K = 0; K < Cover.numCliques(); ++K)
      Got.insert(std::set<VertexId>(Cover.clique(K).begin(),
                                    Cover.clique(K).end()));
    EXPECT_EQ(Got, RefSet) << "round " << Round;
  }
}

TEST(ChordalTest, FusedPassAgreesWithTheSeparateCheckAndExtraction) {
  // maximalCliquesIfPeo must accept exactly the orders
  // isPerfectEliminationOrder accepts, and then emit maximalCliquesChordal's
  // cover: the same clique lists, in the same order, and the same
  // cliquesOf index.
  Rng R(909);
  unsigned Accepted = 0, Rejected = 0;
  for (int Round = 0; Round < 60; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 4 + static_cast<unsigned>(R.nextBelow(40));
    Graph G = Round % 3 == 0 ? randomGraph(R, 12, 0.3, 10)
                             : randomChordalGraph(R, Opt);
    EliminationOrder Mcs = maximumCardinalitySearch(G);
    std::vector<VertexId> Shuffled = Mcs.Order;
    R.shuffle(Shuffled);
    for (const EliminationOrder &Order :
         {Mcs, EliminationOrder::fromOrder(G, Shuffled)}) {
      CliqueCover Fused;
      bool Ok = maximalCliquesIfPeo(G, Order, Fused);
      ASSERT_EQ(Ok, isPerfectEliminationOrder(G, Order)) << "round " << Round;
      if (Ok) {
        EXPECT_EQ(Fused, maximalCliquesChordal(G, Order)) << "round " << Round;
      }
      ++(Ok ? Accepted : Rejected);
    }
  }
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);

  CliqueCover Untouched;
  Graph Figure5 = figure5Graph();
  EliminationOrder Bad =
      EliminationOrder::fromOrder(Figure5, {3, 0, 5, 4, 1, 6, 2});
  EXPECT_FALSE(maximalCliquesIfPeo(Figure5, Bad, Untouched));
  EXPECT_EQ(Untouched.numCliques(), 0u);
}

TEST(ChordalTest, CliquesOfIndexIsConsistent) {
  Rng R(404);
  ChordalGenOptions Opt;
  Opt.NumVertices = 30;
  Graph G = randomChordalGraph(R, Opt);
  CliqueCover Cover = maximalCliquesChordal(G, maximumCardinalitySearch(G));
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    EXPECT_FALSE(Cover.cliquesOf(V).empty());
    for (unsigned K : Cover.cliquesOf(V)) {
      NeighborRange Clique = Cover.clique(K);
      EXPECT_NE(std::find(Clique.begin(), Clique.end(), V), Clique.end());
    }
  }
}

TEST(ChordalTest, CliquesAreActuallyCliques) {
  Rng R(505);
  ChordalGenOptions Opt;
  Opt.NumVertices = 40;
  Graph G = randomChordalGraph(R, Opt);
  CliqueCover Cover = maximalCliquesChordal(G, maximumCardinalitySearch(G));
  for (unsigned C = 0; C < Cover.numCliques(); ++C) {
    NeighborRange K = Cover.clique(C);
    for (size_t A = 0; A < K.size(); ++A)
      for (size_t B = A + 1; B < K.size(); ++B)
        EXPECT_TRUE(G.hasEdge(K[A], K[B]));
  }
}

TEST(ChordalTest, CliqueTreeIsValidOnRandomChordalGraphs) {
  Rng R(606);
  for (int Round = 0; Round < 25; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 5 + static_cast<unsigned>(R.nextBelow(60));
    Opt.TreeSize = 5 + static_cast<unsigned>(R.nextBelow(40));
    Graph G = randomChordalGraph(R, Opt);
    CliqueCover Cover = maximalCliquesChordal(G, maximumCardinalitySearch(G));
    CliqueTree Tree = buildCliqueTree(G, Cover);
    EXPECT_TRUE(isValidCliqueTree(G, Cover, Tree)) << "round " << Round;
  }
}

TEST(ChordalTest, CliqueTreeTopoOrderHasParentsFirst) {
  Rng R(707);
  ChordalGenOptions Opt;
  Opt.NumVertices = 30;
  Graph G = randomChordalGraph(R, Opt);
  CliqueCover Cover = maximalCliquesChordal(G, maximumCardinalitySearch(G));
  CliqueTree Tree = buildCliqueTree(G, Cover);
  std::vector<unsigned> Position(Cover.numCliques());
  for (unsigned I = 0; I < Tree.TopoOrder.size(); ++I)
    Position[Tree.TopoOrder[I]] = I;
  for (unsigned C = 0; C < Cover.numCliques(); ++C) {
    if (Tree.Parent[C] != ~0u) {
      EXPECT_LT(Position[Tree.Parent[C]], Position[C]);
    }
  }
}

TEST(ChordalTest, MaxCliqueSizeOfFigure4GraphIsThree) {
  Graph G = figure5Graph();
  CliqueCover Cover = maximalCliquesChordal(G, maximumCardinalitySearch(G));
  EXPECT_EQ(Cover.maxCliqueSize(), 3u);
  // Expected maximal cliques: {a,d,f}, {d,e,f}, {c,d,e}, {b,c,g}.
  EXPECT_EQ(Cover.numCliques(), 4u);
}

TEST(ChordalTest, IntervalGraphsAreChordal) {
  Rng R(808);
  for (int Round = 0; Round < 10; ++Round) {
    Graph G = randomIntervalGraph(R, 40, 100, 25, 50);
    EXPECT_TRUE(isChordal(G));
  }
}

TEST(ChordalTest, McsRecordsTheLaterListsOfItsOrder) {
  // On chordal and non-chordal graphs alike, the lists MCS writes while it
  // visits equal a scan of the graph under the order it returns, and
  // fromOrder's scan of the same order produces the same lists.
  expectMcsListsMatchFromOrder(Graph(), "empty graph");
  expectMcsListsMatchFromOrder(figure5Graph(), "figure 5");
  for (unsigned Length = 4; Length <= 8; ++Length)
    expectMcsListsMatchFromOrder(cycleGraph(Length),
                                 "C" + std::to_string(Length));
  Rng R(1010);
  for (int Round = 0; Round < 40; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 1 + static_cast<unsigned>(R.nextBelow(60));
    Opt.TreeSize = 5 + static_cast<unsigned>(R.nextBelow(40));
    expectMcsListsMatchFromOrder(randomChordalGraph(R, Opt),
                                 "chordal round " + std::to_string(Round));
    unsigned N = 2 + static_cast<unsigned>(R.nextBelow(20));
    expectMcsListsMatchFromOrder(randomGraph(R, N, 0.3, 10),
                                 "random round " + std::to_string(Round));
  }
}

TEST(ChordalTest, FromOrderListsMatchAScanForAnyOrder) {
  Rng R(1111);
  for (int Round = 0; Round < 20; ++Round) {
    ChordalGenOptions Opt;
    Opt.NumVertices = 2 + static_cast<unsigned>(R.nextBelow(40));
    Graph G = Round % 2 ? randomGraph(R, Opt.NumVertices, 0.3, 10)
                        : randomChordalGraph(R, Opt);
    std::string What = "round " + std::to_string(Round);
    expectLaterListsMatchAScan(G, lexBfs(G), What + ", lexBfs");
    std::vector<VertexId> Shuffled(G.numVertices());
    std::iota(Shuffled.begin(), Shuffled.end(), 0);
    R.shuffle(Shuffled);
    expectLaterListsMatchAScan(G, EliminationOrder::fromOrder(G, Shuffled),
                               What + ", shuffled");
  }
}

TEST(ChordalTest, FusedPassRejectsEveryNonChordalGraph) {
  // No order of a non-chordal graph is a PEO, so the fused pass must
  // refuse MCS's order and any other, leaving the cover untouched.
  auto ExpectRejected = [](const Graph &G, const EliminationOrder &Order,
                           const std::string &What) {
    CliqueCover Untouched;
    EXPECT_FALSE(maximalCliquesIfPeo(G, Order, Untouched)) << What;
    EXPECT_EQ(Untouched.numCliques(), 0u) << What;
  };
  Rng R(1212);
  auto ExpectAllRejected = [&](const Graph &G, const std::string &What) {
    ExpectRejected(G, maximumCardinalitySearch(G), What + ", MCS");
    ExpectRejected(G, lexBfs(G), What + ", lexBfs");
    std::vector<VertexId> Shuffled(G.numVertices());
    std::iota(Shuffled.begin(), Shuffled.end(), 0);
    R.shuffle(Shuffled);
    ExpectRejected(G, EliminationOrder::fromOrder(G, Shuffled),
                   What + ", shuffled");
  };
  for (unsigned Length = 4; Length <= 8; ++Length)
    ExpectAllRejected(cycleGraph(Length), "C" + std::to_string(Length));
  unsigned NonChordal = 0;
  for (int Round = 0; Round < 60; ++Round) {
    unsigned N = 6 + static_cast<unsigned>(R.nextBelow(14));
    Graph G = randomGraph(R, N, 0.3, 10);
    if (isChordal(G))
      continue;
    ++NonChordal;
    ExpectAllRejected(G, "random round " + std::to_string(Round));
  }
  EXPECT_GT(NonChordal, 20u) << "too few non-chordal random graphs";
}
