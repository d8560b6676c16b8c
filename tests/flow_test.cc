#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

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

// Minimum vertex cover of a bipartite graph on the unit network
// s->L->R->t: capacity 1 on s->l and r->t, infinite on l->r. By König's
// theorem the max flow (a maximum matching) equals the minimum cover,
// and the min cut's edges name the cover: s->l puts l in it, r->t puts
// r in it. This is the identity unbound-perm-flow relies on for q_Aperm.
struct UnitNetworkCover {
  int64_t flow = 0;
  std::vector<bool> left;
  std::vector<bool> right;
  int size = 0;
};

UnitNetworkCover CoverByMaxFlow(
    int num_left, int num_right,
    const std::vector<std::pair<int, int>>& edges) {
  MaxFlow f(2 + num_left + num_right);
  const int s = 0;
  const int t = 1;
  auto left_node = [](int l) { return 2 + l; };
  auto right_node = [&](int r) { return 2 + num_left + r; };
  for (int l = 0; l < num_left; ++l) f.AddEdge(s, left_node(l), 1, l);
  for (int r = 0; r < num_right; ++r) {
    f.AddEdge(right_node(r), t, 1, num_left + r);
  }
  for (auto [l, r] : edges) {
    f.AddEdge(left_node(l), right_node(r), kInfCapacity);
  }
  UnitNetworkCover cover;
  cover.flow = f.Compute(s, t);
  cover.left.assign(static_cast<size_t>(num_left), false);
  cover.right.assign(static_cast<size_t>(num_right), false);
  for (int e : f.MinCutEdges()) {
    int64_t tag = f.edge(e).tag;
    EXPECT_GE(tag, 0) << "an infinite l->r edge was cut";
    if (tag < num_left) {
      cover.left[static_cast<size_t>(tag)] = true;
    } else {
      cover.right[static_cast<size_t>(tag - num_left)] = true;
    }
    ++cover.size;
  }
  return cover;
}

// The cut edges form a vertex cover whose size equals the flow value.
void ExpectCoverEqualsFlow(const UnitNetworkCover& c,
                           const std::vector<std::pair<int, int>>& edges,
                           const std::string& label) {
  for (auto [l, r] : edges) {
    EXPECT_TRUE(c.left[static_cast<size_t>(l)] ||
                c.right[static_cast<size_t>(r)])
        << label << ": " << l << "-" << r;
  }
  EXPECT_EQ(c.size, c.flow) << label;
}

TEST(Bipartite, PerfectMatchingSquare) {
  // K2,2: cover size 2.
  std::vector<std::pair<int, int>> edges = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  UnitNetworkCover c = CoverByMaxFlow(2, 2, edges);
  EXPECT_EQ(c.flow, 2);
  ExpectCoverEqualsFlow(c, edges, "K2,2");
}

TEST(Bipartite, StarNeedsOneVertex) {
  // One left vertex connected to 4 rights: cover = {left}.
  std::vector<std::pair<int, int>> edges = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  UnitNetworkCover c = CoverByMaxFlow(1, 4, edges);
  EXPECT_EQ(c.flow, 1);
  ExpectCoverEqualsFlow(c, edges, "star");
  EXPECT_TRUE(c.left[0]);
}

TEST(Bipartite, CoverEqualsMatchingByKonig) {
  // Path: L0-R0, L1-R0, L1-R1, L2-R1. Max matching 2, cover 2.
  std::vector<std::pair<int, int>> edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}};
  UnitNetworkCover c = CoverByMaxFlow(3, 2, edges);
  EXPECT_EQ(c.flow, 2);
  ExpectCoverEqualsFlow(c, edges, "path");
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
    UnitNetworkCover c = CoverByMaxFlow(n, n, edges);
    EXPECT_GT(c.flow, 0) << n;
    ExpectCoverEqualsFlow(c, edges, "G(" + std::to_string(n) + ")");
  }
}

TEST(Bipartite, EmptyGraph) {
  UnitNetworkCover c = CoverByMaxFlow(3, 3, {});
  EXPECT_EQ(c.flow, 0);
  EXPECT_EQ(c.size, 0);
}

}  // namespace
}  // namespace rescq
