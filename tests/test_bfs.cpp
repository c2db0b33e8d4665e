// Unit tests for the BFS kernels and workspace reuse semantics.
#include <gtest/gtest.h>

#include "gen/erdos_renyi.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "support/random.hpp"

namespace distbc::graph {
namespace {

Graph path_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, edges);
}

TEST(Bfs, DistancesOnPath) {
  const Graph graph = path_graph(6);
  const auto dist = bfs_distances(graph, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
}

TEST(Bfs, SummaryOnPath) {
  const Graph graph = path_graph(6);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 0, ws);
  EXPECT_EQ(summary.eccentricity, 5u);
  EXPECT_EQ(summary.reached, 6u);
  EXPECT_EQ(summary.farthest, 5u);
}

TEST(Bfs, MidpointSource) {
  const Graph graph = path_graph(7);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 3, ws);
  EXPECT_EQ(summary.eccentricity, 3u);
  EXPECT_TRUE(summary.farthest == 0u || summary.farthest == 6u);
}

TEST(Bfs, UnreachableVerticesStayMarked) {
  // Two components: 0-1 and 2-3.
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  const auto dist = bfs_distances(graph, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, WorkspaceReuseResetsMarks) {
  const Graph graph = from_edges(4, {{0, 1}, {2, 3}});
  BfsWorkspace ws(graph.num_vertices());
  bfs(graph, 0, ws);
  EXPECT_TRUE(ws.visited(1));
  EXPECT_FALSE(ws.visited(2));
  bfs(graph, 2, ws);
  EXPECT_TRUE(ws.visited(3));
  EXPECT_FALSE(ws.visited(0));  // previous run's marks invalidated
}

TEST(Bfs, QueueHoldsExactlyReachedVertices) {
  const Graph graph = from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, 1, ws);
  EXPECT_EQ(summary.reached, 3u);
  EXPECT_EQ(ws.queue().size(), 3u);
}

TEST(Bfs, SingleVertexGraph) {
  const Graph graph = from_edges(1, {});
  BfsWorkspace ws(1);
  const BfsSummary summary = bfs(graph, 0, ws);
  EXPECT_EQ(summary.eccentricity, 0u);
  EXPECT_EQ(summary.reached, 1u);
  EXPECT_EQ(summary.farthest, 0u);
}

TEST(Bfs, MatchesNaiveReferenceOnRandomGraph) {
  const Graph graph = gen::erdos_renyi(200, 400, /*seed=*/7);
  // Naive O(V^2) reference: repeated relaxation.
  const Vertex n = graph.num_vertices();
  std::vector<std::uint32_t> reference(n, kUnreachable);
  reference[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Vertex u = 0; u < n; ++u) {
      if (reference[u] == kUnreachable) continue;
      for (const Vertex w : graph.neighbors(u)) {
        if (reference[u] + 1 < reference[w]) {
          reference[w] = reference[u] + 1;
          changed = true;
        }
      }
    }
  }
  const auto dist = bfs_distances(graph, 0);
  for (Vertex v = 0; v < n; ++v) EXPECT_EQ(dist[v], reference[v]) << v;
}

TEST(Bfs, ManyReusesDoNotLeakState) {
  const Graph graph = gen::erdos_renyi(64, 128, 3);
  BfsWorkspace ws(graph.num_vertices());
  const auto expected = bfs(graph, 5, ws).reached;
  for (int i = 0; i < 1000; ++i) {
    const BfsSummary summary = bfs(graph, 5, ws);
    ASSERT_EQ(summary.reached, expected);
  }
}

TEST(EccentricityBatch, MatchesScalarBfsOnRandomGraphs) {
  // Sparse and dense random graphs, several components each; batches of
  // every width with repeated sources, reusing one workspace throughout.
  Rng rng(99);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Vertex n = 300;
    const Graph graph = gen::erdos_renyi(n, seed % 2 == 0 ? 280 : 1500, seed);
    BfsWorkspace ws(n);
    EccentricityBatch batch(n);
    for (int round = 0; round < 12; ++round) {
      const auto width = static_cast<std::size_t>(
          round == 0 ? EccentricityBatch::kLanes
                     : rng.next_range(1, EccentricityBatch::kLanes));
      std::vector<Vertex> sources(width);
      for (Vertex& s : sources) s = static_cast<Vertex>(rng.next_bounded(n));
      std::vector<std::uint32_t> ecc(width);
      batch.run(graph, sources, ecc);
      for (std::size_t j = 0; j < width; ++j) {
        ASSERT_EQ(ecc[j], bfs(graph, sources[j], ws).eccentricity)
            << "seed " << seed << " round " << round << " lane " << j;
      }
    }
  }
}

TEST(EccentricityBatch, PathAndSingleVertex) {
  const Graph path = path_graph(9);
  EccentricityBatch batch(path.num_vertices());
  const std::vector<Vertex> sources = {0, 4, 8, 2};
  std::vector<std::uint32_t> ecc(sources.size());
  batch.run(path, sources, ecc);
  EXPECT_EQ(ecc, (std::vector<std::uint32_t>{8, 4, 8, 6}));

  const Graph single = from_edges(1, {});
  EccentricityBatch one(1);
  const std::vector<Vertex> source = {0};
  std::vector<std::uint32_t> zero(1, 7);
  one.run(single, source, zero);
  EXPECT_EQ(zero[0], 0u);
}

}  // namespace
}  // namespace distbc::graph
