//===- graph/Chordal.cpp - Chordal graph machinery ------------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "graph/Chordal.h"

#include "core/SolverWorkspace.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <algorithm>
#include <list>
#include <numeric>
#include <unordered_map>

using namespace layra;

EliminationOrder EliminationOrder::fromOrder(const Graph &G,
                                             std::vector<VertexId> Order) {
  unsigned N = G.numVertices();
  assert(Order.size() == N && "order must list every vertex once");
  EliminationOrder Result;
  Result.Position.resize(N, ~0u);
  for (unsigned I = 0; I < N; ++I) {
    assert(Order[I] < N && "order mentions unknown vertex");
    assert(Result.Position[Order[I]] == ~0u && "duplicate vertex in order");
    Result.Position[Order[I]] = I;
  }
  Result.Order = std::move(Order);
  Result.LaterStart.resize(N + 1);
  Result.Later.reserve(G.numEdges());
  Result.Parent.assign(N, kNoParent);
  for (unsigned I = 0; I < N; ++I) {
    Result.LaterStart[I] = static_cast<uint32_t>(Result.Later.size());
    unsigned Earliest = ~0u;
    for (VertexId U : G.neighbors(Result.Order[I])) {
      unsigned At = Result.Position[U];
      if (At <= I)
        continue;
      Result.Later.push_back(U);
      if (At < Earliest) {
        Earliest = At;
        Result.Parent[I] = U;
      }
    }
  }
  Result.LaterStart[N] = static_cast<uint32_t>(Result.Later.size());
  return Result;
}

EliminationOrder layra::maximumCardinalitySearch(const Graph &G,
                                                 SolverWorkspace *WS) {
  PhaseSpan McsSpan(Phase::McsPeo);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  unsigned N = G.numVertices();
  // Bucketed MCS: bucket c is a stack of unvisited vertices with c visited
  // neighbors; we repeatedly visit from the highest non-empty bucket.  The
  // stacks are linked lists threaded through one flat node pool: every
  // vertex is pushed once up front and at most once more per edge (when
  // its first endpoint is visited), so N + E nodes always suffice.
  constexpr uint32_t kNil = ~0u;
  std::vector<uint32_t> &Head =
      WS->acquire(WS->Chordal.BucketHead, N + 1, kNil);
  std::vector<SolverWorkspace::McsNode> &Nodes =
      WS->acquireCleared(WS->Chordal.BucketNodes);
  Nodes.reserve(N + G.numEdges());
  auto Push = [&](unsigned Bucket, VertexId V) {
    Nodes.push_back({V, Head[Bucket]});
    Head[Bucket] = static_cast<uint32_t>(Nodes.size() - 1);
  };
  std::vector<unsigned> &Count = WS->acquire(WS->Chordal.Count, N, 0u);
  for (VertexId V = 0; V < N; ++V)
    Push(0, V);

  // The reverse of the visit order is the PEO, so the I-th visited vertex
  // takes position N-1-I and the order fills from its back.  A vertex's
  // visited neighbors are exactly its later neighbors: Count[V] of them,
  // known before the scan, so each list is written in place, right below
  // the one visited before it, and its parent is the most recently
  // visited of them.  A vertex is visited once it has a position.
  EliminationOrder Result;
  Result.Order.resize(N);
  Result.Position.assign(N, ~0u);
  Result.LaterStart.resize(N + 1);
  Result.Later.resize(G.numEdges());
  Result.Parent.assign(N, EliminationOrder::kNoParent);
  std::vector<unsigned> &Position = Result.Position;
  uint32_t Fill = static_cast<uint32_t>(G.numEdges());
  unsigned Top = 0;
  for (unsigned At = N; At-- > 0;) {
    VertexId V;
    for (;;) {
      while (Head[Top] == kNil) {
        assert(Top > 0 && "MCS ran out of vertices before visiting all");
        --Top;
      }
      V = Nodes[Head[Top]].V;
      Head[Top] = Nodes[Head[Top]].Next;
      // Skip stale entries: the vertex was visited already, or a later
      // push moved it to a higher bucket.
      if (Position[V] == ~0u && Count[V] == Top)
        break;
    }
    Position[V] = At;
    Result.Order[At] = V;
    Fill -= Count[V];
    Result.LaterStart[At] = Fill;
    uint32_t Out = Fill;
    unsigned Earliest = ~0u;
    for (VertexId U : G.neighbors(V)) {
      unsigned UAt = Position[U];
      if (UAt != ~0u) {
        Result.Later[Out++] = U;
        if (UAt < Earliest) {
          Earliest = UAt;
          Result.Parent[At] = U;
        }
        continue;
      }
      ++Count[U];
      Push(Count[U], U);
      Top = std::max(Top, Count[U]);
    }
    assert(Out - Fill == Count[V] && "visited-neighbor count out of sync");
  }
  assert(Fill == 0 && "every edge is later for exactly one endpoint");
  Result.LaterStart[N] = static_cast<uint32_t>(G.numEdges());
  return Result;
}

EliminationOrder layra::lexBfs(const Graph &G) {
  PhaseSpan LexBfsSpan(Phase::McsPeo);
  unsigned N = G.numVertices();
  // Partition refinement: Slices is an ordered list of vertex groups; the
  // next visited vertex is the front of the first slice, and visiting splits
  // every slice into (neighbors, non-neighbors), neighbors first.
  std::list<std::vector<VertexId>> Slices;
  if (N > 0) {
    std::vector<VertexId> All(N);
    std::iota(All.begin(), All.end(), 0);
    Slices.push_back(std::move(All));
  }

  std::vector<char> IsNeighbor(N, 0);
  std::vector<VertexId> Visit;
  Visit.reserve(N);
  while (!Slices.empty()) {
    std::vector<VertexId> &First = Slices.front();
    VertexId V = First.back();
    First.pop_back();
    if (First.empty())
      Slices.pop_front();
    Visit.push_back(V);

    for (VertexId U : G.neighbors(V))
      IsNeighbor[U] = 1;
    for (auto It = Slices.begin(); It != Slices.end();) {
      std::vector<VertexId> Hit, Miss;
      for (VertexId U : *It)
        (IsNeighbor[U] ? Hit : Miss).push_back(U);
      if (Hit.empty() || Miss.empty()) {
        ++It;
        continue;
      }
      *It = std::move(Miss);
      Slices.insert(It, std::move(Hit));
      ++It;
    }
    for (VertexId U : G.neighbors(V))
      IsNeighbor[U] = 0;
  }

  std::reverse(Visit.begin(), Visit.end());
  return EliminationOrder::fromOrder(G, std::move(Visit));
}

/// Later neighbors of \p V (the "monotone adjacency set" of the RTL
/// chordality literature), collected into the caller's scratch buffer
/// (cleared first) so tight loops do not allocate per vertex.
static void laterNeighbors(const Graph &G, const EliminationOrder &Peo,
                           VertexId V, std::vector<VertexId> &Out) {
  Out.clear();
  for (VertexId U : G.neighbors(V))
    if (Peo.Position[U] > Peo.Position[V])
      Out.push_back(U);
}

bool layra::isPerfectEliminationOrder(const Graph &G,
                                      const EliminationOrder &Order,
                                      SolverWorkspace *WS) {
  PhaseSpan PeoSpan(Phase::McsPeo);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  unsigned N = G.numVertices();
  if (Order.Order.size() != N)
    return false;
  // Rose-Tarjan-Lueker test: for each vertex v, let u be the earliest later
  // neighbor; all other later neighbors of v must be adjacent to u.  We
  // batch the membership checks per u.
  std::vector<std::vector<VertexId>> &MustBeAdjacentTo =
      WS->acquireNested(WS->Chordal.MustBeAdjacentTo, N);
  std::vector<VertexId> Later;
  for (VertexId V : Order.Order) {
    laterNeighbors(G, Order, V, Later);
    if (Later.empty())
      continue;
    VertexId Parent = *std::min_element(
        Later.begin(), Later.end(), [&](VertexId A, VertexId B) {
          return Order.Position[A] < Order.Position[B];
        });
    for (VertexId U : Later)
      if (U != Parent)
        MustBeAdjacentTo[Parent].push_back(U);
  }
  std::vector<char> &Mark = WS->acquire(WS->Chordal.Flags, N, char(0));
  for (VertexId U = 0; U < N; ++U) {
    if (MustBeAdjacentTo[U].empty())
      continue;
    for (VertexId W : G.neighbors(U))
      Mark[W] = 1;
    bool Ok = true;
    for (VertexId W : MustBeAdjacentTo[U])
      Ok = Ok && Mark[W];
    for (VertexId W : G.neighbors(U))
      Mark[W] = 0;
    if (!Ok)
      return false;
  }
  return true;
}

bool layra::isChordal(const Graph &G) {
  return isPerfectEliminationOrder(G, maximumCardinalitySearch(G));
}

CliqueCover::CliqueCover(unsigned NumVertices, std::vector<uint32_t> Offsets,
                         std::vector<VertexId> Packed)
    : CliqueStart(std::move(Offsets)), Members(std::move(Packed)) {
  assert(!CliqueStart.empty() && CliqueStart.front() == 0 &&
         CliqueStart.back() == Members.size() && "malformed clique offsets");
  // The inverse index by a counting sort over the packed members, clique
  // by clique, so each vertex's clique indices come out ascending.
  // OfStart[V] serves as V's fill cursor and is shifted back afterwards.
  OfStart.assign(NumVertices + 1, 0);
  for (VertexId V : Members) {
    assert(V < NumVertices && "clique mentions unknown vertex");
    ++OfStart[V + 1];
  }
  for (VertexId V = 0; V < NumVertices; ++V)
    OfStart[V + 1] += OfStart[V];
  OfClique.resize(Members.size());
  for (unsigned K = 0; K < numCliques(); ++K)
    for (VertexId V : clique(K))
      OfClique[OfStart[V]++] = K;
  for (VertexId V = NumVertices; V > 0; --V)
    OfStart[V] = OfStart[V - 1];
  OfStart[0] = 0;
}

unsigned CliqueCover::maxCliqueSize() const {
  size_t Max = 0;
  for (unsigned K = 0; K < numCliques(); ++K)
    Max = std::max(Max, clique(K).size());
  return static_cast<unsigned>(Max);
}

CliqueCover layra::maximalCliquesChordal(const Graph &G,
                                         const EliminationOrder &Peo,
                                         SolverWorkspace *WS) {
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  assert(isPerfectEliminationOrder(G, Peo) &&
         "maximalCliquesChordal requires a PEO (is the graph chordal?)");
  unsigned N = G.numVertices();
  // Fulkerson-Gross: every maximal clique is C_v = {v} + laterNeighbors(v)
  // for some v.  C_v is NON-maximal iff some u with parent(u) == v satisfies
  // |later(u)| == |later(v)| + 1 (then C_v is a subset of C_u); this is the
  // Blair-Peyton detection used in clique-tree construction.
  std::vector<unsigned> &LaterCount =
      WS->acquire(WS->Chordal.LaterCount, N, 0u);
  std::vector<VertexId> Parent(N, EliminationOrder::kNoParent);
  std::vector<VertexId> Later;
  for (VertexId V = 0; V < N; ++V) {
    laterNeighbors(G, Peo, V, Later);
    LaterCount[V] = static_cast<unsigned>(Later.size());
    if (!Later.empty())
      Parent[V] = *std::min_element(
          Later.begin(), Later.end(), [&](VertexId A, VertexId B) {
            return Peo.Position[A] < Peo.Position[B];
          });
  }

  std::vector<char> &Absorbed = WS->acquire(WS->Chordal.Flags, N, char(0));
  for (VertexId U = 0; U < N; ++U)
    if (Parent[U] != ~0u && LaterCount[U] == LaterCount[Parent[U]] + 1)
      Absorbed[Parent[U]] = 1;

  std::vector<uint32_t> Offsets{0};
  std::vector<VertexId> Members;
  for (VertexId V : Peo.Order) {
    if (Absorbed[V])
      continue;
    laterNeighbors(G, Peo, V, Later);
    Members.insert(Members.end(), Later.begin(), Later.end());
    Members.push_back(V);
    Offsets.push_back(static_cast<uint32_t>(Members.size()));
  }
  return CliqueCover(N, std::move(Offsets), std::move(Members));
}

bool layra::maximalCliquesIfPeo(const Graph &G, const EliminationOrder &Order,
                                CliqueCover &Out, SolverWorkspace *WS) {
  PhaseSpan PeoSpan(Phase::McsPeo);
  WorkspaceOrLocal LocalScope(WS);
  WS = LocalScope.get();
  unsigned N = G.numVertices();
  if (Order.Order.size() != N)
    return false;
  assert(Order.LaterStart.size() == N + 1 &&
         Order.LaterStart[N] == G.numEdges() &&
         "later lists do not belong to this graph");
  const std::vector<unsigned> &Position = Order.Position;
  const std::vector<VertexId> &Parent = Order.Parent;
  constexpr VertexId kNoParent = EliminationOrder::kNoParent;

  // Rose-Tarjan-Lueker: every later neighbor of the vertex at position I
  // other than its parent P must be a later neighbor of P.  Bucket the
  // positions by their parent's position, then stamp later(P) once and
  // test all of P's children against it.
  std::vector<uint32_t> &ChildEnd =
      WS->acquire(WS->Chordal.ChildEnd, N, 0u);
  for (unsigned I = 0; I < N; ++I)
    if (Parent[I] != kNoParent)
      ++ChildEnd[Position[Parent[I]]];
  uint32_t Sum = 0;
  for (unsigned P = 0; P < N; ++P) {
    Sum += ChildEnd[P];
    ChildEnd[P] = Sum - ChildEnd[P]; // Start for now; the fill ends it.
  }
  std::vector<uint32_t> &Children =
      WS->acquire(WS->Chordal.Children, Sum, 0u);
  for (unsigned I = 0; I < N; ++I)
    if (Parent[I] != kNoParent)
      Children[ChildEnd[Position[Parent[I]]]++] = I;
  std::vector<unsigned> &Stamp = WS->acquire(WS->Chordal.Stamp, N, ~0u);
  uint32_t Begin = 0;
  for (unsigned P = 0; P < N; ++P) {
    uint32_t End = ChildEnd[P];
    if (Begin != End) {
      for (VertexId W : Order.laterAt(P))
        Stamp[W] = P;
      for (uint32_t C = Begin; C < End; ++C)
        for (VertexId U : Order.laterAt(Children[C]))
          if (U != Order.Order[P] && Stamp[U] != P)
            return false;
    }
    Begin = End;
  }

  // Fulkerson-Gross, as in maximalCliquesChordal: C_v = later(v) + {v} is
  // non-maximal iff a child u of v has |later(u)| == |later(v)| + 1.
  std::vector<char> &Absorbed = WS->acquire(WS->Chordal.Flags, N, char(0));
  for (unsigned I = 0; I < N; ++I)
    if (Parent[I] != kNoParent) {
      unsigned P = Position[Parent[I]];
      if (Order.laterAt(I).size() == Order.laterAt(P).size() + 1)
        Absorbed[P] = 1;
    }
  size_t NumMembers = 0;
  unsigned NumCliques = 0;
  for (unsigned I = 0; I < N; ++I)
    if (!Absorbed[I]) {
      ++NumCliques;
      NumMembers += Order.laterAt(I).size() + 1;
    }
  std::vector<uint32_t> Offsets;
  Offsets.reserve(NumCliques + 1);
  Offsets.push_back(0);
  std::vector<VertexId> Members;
  Members.reserve(NumMembers);
  for (unsigned I = 0; I < N; ++I) {
    if (Absorbed[I])
      continue;
    NeighborRange Clique = Order.laterAt(I);
    Members.insert(Members.end(), Clique.begin(), Clique.end());
    Members.push_back(Order.Order[I]);
    Offsets.push_back(static_cast<uint32_t>(Members.size()));
  }
  Out = CliqueCover(N, std::move(Offsets), std::move(Members));
  return true;
}

namespace {
/// Disjoint-set union for the Kruskal run in buildCliqueTree.
class UnionFind {
public:
  explicit UnionFind(unsigned N) : Parent(N) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  bool unite(unsigned A, unsigned B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[B] = A;
    return true;
  }

private:
  std::vector<unsigned> Parent;
};
} // namespace

CliqueTree layra::buildCliqueTree(const Graph &G, const CliqueCover &Cover) {
  PhaseSpan TreeSpan(Phase::CliqueTreeDp);
  unsigned K = Cover.numCliques();
  CliqueTree Tree;
  Tree.Parent.assign(K, ~0u);
  Tree.Children.resize(K);
  Tree.Separator.resize(K);

  // Weight of the clique-intersection edge (i, j) = |K_i intersect K_j|.
  // Only pairs sharing a vertex matter; enumerate them via cliquesOf().
  std::unordered_map<uint64_t, unsigned> Shared;
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    CliqueIndexRange In = Cover.cliquesOf(V);
    for (size_t A = 0; A < In.size(); ++A)
      for (size_t B = A + 1; B < In.size(); ++B) {
        unsigned I = std::min(In[A], In[B]), J = std::max(In[A], In[B]);
        ++Shared[(static_cast<uint64_t>(I) << 32) | J];
      }
  }

  struct CandidateEdge {
    unsigned Weight, I, J;
  };
  std::vector<CandidateEdge> Edges;
  Edges.reserve(Shared.size());
  for (const auto &[Key, W] : Shared)
    Edges.push_back({W, static_cast<unsigned>(Key >> 32),
                     static_cast<unsigned>(Key & 0xffffffffu)});
  // Sort by descending weight, tie-broken by indices for determinism.
  std::sort(Edges.begin(), Edges.end(),
            [](const CandidateEdge &A, const CandidateEdge &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              if (A.I != B.I)
                return A.I < B.I;
              return A.J < B.J;
            });

  UnionFind Dsu(K);
  std::vector<std::vector<unsigned>> TreeAdj(K);
  for (const CandidateEdge &E : Edges)
    if (Dsu.unite(E.I, E.J)) {
      TreeAdj[E.I].push_back(E.J);
      TreeAdj[E.J].push_back(E.I);
    }

  // Root every component at its smallest clique index and orient.
  std::vector<char> Seen(K, 0);
  for (unsigned Root = 0; Root < K; ++Root) {
    if (Seen[Root])
      continue;
    std::vector<unsigned> Stack{Root};
    Seen[Root] = 1;
    while (!Stack.empty()) {
      unsigned C = Stack.back();
      Stack.pop_back();
      Tree.TopoOrder.push_back(C);
      for (unsigned D : TreeAdj[C]) {
        if (Seen[D])
          continue;
        Seen[D] = 1;
        Tree.Parent[D] = C;
        Tree.Children[C].push_back(D);
        Stack.push_back(D);
      }
    }
  }

  // Separators: child clique intersected with its parent clique.
  std::vector<char> Mark(G.numVertices(), 0);
  for (unsigned C = 0; C < K; ++C) {
    unsigned P = Tree.Parent[C];
    if (P == ~0u)
      continue;
    for (VertexId V : Cover.clique(P))
      Mark[V] = 1;
    for (VertexId V : Cover.clique(C))
      if (Mark[V])
        Tree.Separator[C].push_back(V);
    for (VertexId V : Cover.clique(P))
      Mark[V] = 0;
  }
  return Tree;
}

bool layra::isValidCliqueTree(const Graph &G, const CliqueCover &Cover,
                              const CliqueTree &Tree) {
  unsigned K = Cover.numCliques();
  if (Tree.Parent.size() != K || Tree.Separator.size() != K)
    return false;
  // Induced-subtree property: for each vertex v the number of tree edges
  // with both endpoints containing v must be |cliquesOf(v)| - 1.
  std::vector<unsigned> EdgesContaining(G.numVertices(), 0);
  for (unsigned C = 0; C < K; ++C)
    for (VertexId V : Tree.Separator[C])
      ++EdgesContaining[V];
  for (VertexId V = 0; V < G.numVertices(); ++V) {
    if (Cover.cliquesOf(V).empty())
      return false; // Every vertex lies in at least one maximal clique.
    if (EdgesContaining[V] != Cover.cliquesOf(V).size() - 1)
      return false;
  }
  return true;
}
