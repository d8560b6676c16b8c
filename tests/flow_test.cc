#include <gtest/gtest.h>

#include <set>

#include "flow/bipartite.h"
#include "flow/max_flow.h"
#include "util/rng.h"

namespace rescq {
namespace {

TEST(MaxFlow, SingleEdge) {
  MaxFlow f(2);
  f.AddEdge(0, 1, 5);
  EXPECT_EQ(f.Compute(0, 1), 5);
}

TEST(MaxFlow, ParallelAndSeries) {
  // s -(3)-> a -(2)-> t  and s -(1)-> t.
  MaxFlow f(3);
  f.AddEdge(0, 1, 3);
  f.AddEdge(1, 2, 2);
  f.AddEdge(0, 2, 1);
  EXPECT_EQ(f.Compute(0, 2), 3);
}

TEST(MaxFlow, ClassicDiamond) {
  // Classic 4-node example with a cross edge; max flow 2000 + ... known.
  MaxFlow f(4);
  f.AddEdge(0, 1, 100);
  f.AddEdge(0, 2, 100);
  f.AddEdge(1, 3, 100);
  f.AddEdge(2, 3, 100);
  f.AddEdge(1, 2, 1);
  EXPECT_EQ(f.Compute(0, 3), 200);
}

TEST(MaxFlow, MinCutEdgesFormACut) {
  MaxFlow f(4);
  int e0 = f.AddEdge(0, 1, 1, /*tag=*/10);
  int e1 = f.AddEdge(0, 2, 1, /*tag=*/11);
  f.AddEdge(1, 3, 5);
  f.AddEdge(2, 3, 5);
  EXPECT_EQ(f.Compute(0, 3), 2);
  std::vector<int> cut = f.MinCutEdges();
  std::set<int> cut_set(cut.begin(), cut.end());
  EXPECT_EQ(cut_set, (std::set<int>{e0, e1}));
  EXPECT_EQ(f.edge(e0).tag, 10);
  EXPECT_EQ(f.edge(e1).tag, 11);
}

TEST(MaxFlow, InfiniteEdgesNeverInCut) {
  // s -∞-> a -1-> b -∞-> t : cut must be the middle edge.
  MaxFlow f(4);
  f.AddEdge(0, 1, kInfCapacity);
  int mid = f.AddEdge(1, 2, 1);
  f.AddEdge(2, 3, kInfCapacity);
  EXPECT_EQ(f.Compute(0, 3), 1);
  std::vector<int> cut = f.MinCutEdges();
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], mid);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 7);
  f.AddEdge(2, 3, 7);
  EXPECT_EQ(f.Compute(0, 3), 0);
  EXPECT_TRUE(f.OnSourceSide(1));
  EXPECT_FALSE(f.OnSourceSide(3));
}

TEST(MaxFlow, LayeredGraphValue) {
  // `layers` layers of `width` nodes, unit capacities, complete between
  // consecutive layers: the value is the width.
  const std::pair<int, int> shapes[] = {{3, 3}, {6, 4}, {6, 8}, {6, 16}};
  for (const std::pair<int, int>& shape : shapes) {
    const int layers = shape.first, width = shape.second;
    MaxFlow f(2 + layers * width);  // s=0, t=1
    auto node = [&](int layer, int i) { return 2 + layer * width + i; };
    for (int i = 0; i < width; ++i) f.AddEdge(0, node(0, i), 1);
    for (int l = 0; l + 1 < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        for (int j = 0; j < width; ++j) {
          f.AddEdge(node(l, i), node(l + 1, j), 1);
        }
      }
    }
    for (int i = 0; i < width; ++i) f.AddEdge(node(layers - 1, i), 1, 1);
    EXPECT_EQ(f.Compute(0, 1), width) << layers << "x" << width;
  }
}

TEST(MaxFlow, AddNode) {
  MaxFlow f(2);
  int mid = f.AddNode();
  f.AddEdge(0, mid, 2);
  f.AddEdge(mid, 1, 1);
  EXPECT_EQ(f.Compute(0, 1), 1);
}

TEST(MaxFlow, SelfLoopDoesNotCorruptResidualGraph) {
  // Regression: AddEdge(u, u, ...) used to compute both rev indices
  // before the second push, leaving the forward edge pointing at itself
  // and corrupting augmentation through u. The loop must be inert: flow
  // values and min cuts are as if it were absent.
  MaxFlow f(3);
  f.AddEdge(0, 1, 2);
  int loop = f.AddEdge(1, 1, 5);
  int mid = f.AddEdge(1, 2, 1);
  EXPECT_EQ(f.Compute(0, 2), 1);
  EXPECT_EQ(f.edge(loop).to, 1);
  EXPECT_EQ(f.edge(loop).capacity, 5);  // untouched by augmentation
  std::vector<int> cut = f.MinCutEdges();
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], mid);
}

TEST(MaxFlow, SelfLoopReverseIndicesAreMutual) {
  // The forward/backward pair of a self-loop sits in one adjacency list;
  // their rev slots must reference each other, not themselves.
  MaxFlow f(1);
  f.AddEdge(0, 0, 3);
  const MaxFlow::Edge& forward = f.edge(0);
  EXPECT_TRUE(forward.forward);
  EXPECT_EQ(forward.capacity, 3);
  EXPECT_NE(forward.rev, 0);  // must point at the backward edge's slot
}

TEST(MaxFlow, SelfLoopOnSourceAndSink) {
  MaxFlow f(2);
  f.AddEdge(0, 0, 7);
  f.AddEdge(0, 1, 4);
  f.AddEdge(1, 1, 7);
  EXPECT_EQ(f.Compute(0, 1), 4);
}

TEST(Bipartite, PerfectMatchingSquare) {
  // K2,2: cover size 2.
  BipartiteCover c(2, 2);
  c.AddEdge(0, 0);
  c.AddEdge(0, 1);
  c.AddEdge(1, 0);
  c.AddEdge(1, 1);
  c.Compute();
  EXPECT_EQ(c.MatchingSize(), 2);
  EXPECT_EQ(c.CoverSize(), 2);
}

TEST(Bipartite, StarNeedsOneVertex) {
  // One left vertex connected to 4 rights: cover = {left}.
  BipartiteCover c(1, 4);
  for (int r = 0; r < 4; ++r) c.AddEdge(0, r);
  c.Compute();
  EXPECT_EQ(c.CoverSize(), 1);
  EXPECT_TRUE(c.left_in_cover()[0]);
}

TEST(Bipartite, CoverEqualsMatchingByKonig) {
  // Path: L0-R0, L1-R0, L1-R1, L2-R1. Max matching 2, cover 2.
  BipartiteCover c(3, 2);
  c.AddEdge(0, 0);
  c.AddEdge(1, 0);
  c.AddEdge(1, 1);
  c.AddEdge(2, 1);
  c.Compute();
  EXPECT_EQ(c.MatchingSize(), 2);
  EXPECT_EQ(c.CoverSize(), 2);
}

TEST(Bipartite, CoverIsActuallyACover) {
  // A fixed 4x4 graph, then random G(16,1/8) and G(64,1/8).
  std::vector<std::pair<int, std::vector<std::pair<int, int>>>> graphs = {
      {4, {{0, 1}, {0, 2}, {1, 0}, {2, 3}, {3, 3}, {1, 2}, {2, 0}}}};
  Rng rng(9);
  for (int n : {16, 64}) {
    std::vector<std::pair<int, int>> edges;
    for (int l = 0; l < n; ++l) {
      for (int r = 0; r < n; ++r) {
        if (rng.Chance(1, 8)) edges.emplace_back(l, r);
      }
    }
    graphs.push_back({n, edges});
  }
  for (const auto& [n, edges] : graphs) {
    BipartiteCover c(n, n);
    for (auto [l, r] : edges) c.AddEdge(l, r);
    c.Compute();
    for (auto [l, r] : edges) {
      EXPECT_TRUE(c.left_in_cover()[static_cast<size_t>(l)] ||
                  c.right_in_cover()[static_cast<size_t>(r)])
          << n << ": " << l << "-" << r;
    }
    EXPECT_GT(c.MatchingSize(), 0) << n;
    EXPECT_EQ(c.CoverSize(), c.MatchingSize()) << n;
  }
}

TEST(Bipartite, EmptyGraph) {
  BipartiteCover c(3, 3);
  c.Compute();
  EXPECT_EQ(c.CoverSize(), 0);
  EXPECT_EQ(c.MatchingSize(), 0);
}

}  // namespace
}  // namespace rescq
