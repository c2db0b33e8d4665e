// Tests for connected components, largest-component extraction, two-sweep,
// iFUB (exact and stopped at the omega bucket), and vertex-diameter bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/hyperbolic.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/random.hpp"

namespace distbc::graph {
namespace {

Graph path_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, edges);
}

/// O(V^2)-ish exact diameter by all-sources BFS (small graphs only).
std::uint32_t brute_force_diameter(const Graph& graph) {
  BfsWorkspace ws(graph.num_vertices());
  std::uint32_t best = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v)
    best = std::max(best, bfs(graph, v, ws).eccentricity);
  return best;
}

/// A random connected graph on 1 to 10 vertices: G(n, p) with p drawn
/// uniformly, reduced to its largest component.
Graph random_small_connected(Rng& rng) {
  const auto n = static_cast<Vertex>(rng.next_range(1, 10));
  const double p = rng.next_double();
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (rng.next_bool(p)) edges.emplace_back(u, v);
  return largest_component(from_edges(n, edges));
}

/// Connected members of every src/gen family, a few hundred vertices each.
std::vector<Graph> family_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(largest_component(gen::barabasi_albert(600, 2, 3)));
  graphs.push_back(largest_component(gen::erdos_renyi(500, 1200, 4)));
  gen::HyperbolicParams hyperbolic;
  hyperbolic.num_vertices = 600;
  hyperbolic.average_degree = 8.0;
  graphs.push_back(largest_component(gen::hyperbolic(hyperbolic, 5)));
  gen::RmatParams rmat;
  rmat.scale = 9;
  rmat.edge_factor = 4.0;
  graphs.push_back(largest_component(gen::rmat(rmat, 6)));
  gen::RoadParams road;
  road.width = 30;
  road.height = 12;
  graphs.push_back(largest_component(gen::road(road, 7)));
  return graphs;
}

TEST(Components, SingleComponent) {
  const Graph graph = path_graph(5);
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 1u);
  EXPECT_EQ(comps.sizes[0], 5u);
  EXPECT_TRUE(is_connected(graph));
}

TEST(Components, MultipleComponentsLabeledConsistently) {
  const Graph graph = from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 3u);
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_NE(comps.label[3], comps.label[5]);
  EXPECT_FALSE(is_connected(graph));
}

TEST(Components, IsolatedVerticesAreComponents) {
  const Graph graph = from_edges(4, {{0, 1}});
  const Components comps = connected_components(graph);
  EXPECT_EQ(comps.count(), 3u);
}

TEST(Components, LargestComponentExtraction) {
  // Components of sizes 3, 2, 2.
  const Graph graph = from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  const Graph largest = largest_component(graph);
  EXPECT_EQ(largest.num_vertices(), 3u);
  EXPECT_EQ(largest.num_edges(), 2u);
  EXPECT_TRUE(is_connected(largest));
}

TEST(Components, LargestComponentOfEmptyGraph) {
  const Graph largest = largest_component(Graph{});
  EXPECT_EQ(largest.num_vertices(), 0u);
}

TEST(Components, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(Graph{}));
}

TEST(TwoSweep, ExactOnPath) {
  const Graph graph = path_graph(10);
  const TwoSweepResult sweep = two_sweep(graph);
  EXPECT_EQ(sweep.lower_bound, 9u);  // two-sweep is exact on trees
  // Midpoint of a 10-path is vertex 4 or 5.
  EXPECT_TRUE(sweep.midpoint == 4u || sweep.midpoint == 5u);
}

TEST(TwoSweep, LowerBoundsOnRandomGraphs) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(120, 260, seed));
    const TwoSweepResult sweep = two_sweep(graph);
    EXPECT_LE(sweep.lower_bound, brute_force_diameter(graph));
    EXPECT_GE(sweep.lower_bound, 1u);
  }
}

TEST(Ifub, ExactOnKnownShapes) {
  EXPECT_EQ(ifub_diameter(path_graph(17)).diameter, 16u);
  // Cycle of 8: diameter 4.
  std::vector<std::pair<Vertex, Vertex>> cycle;
  for (Vertex v = 0; v < 8; ++v) cycle.emplace_back(v, (v + 1) % 8);
  EXPECT_EQ(ifub_diameter(from_edges(8, cycle)).diameter, 4u);
  // Star: diameter 2.
  const Graph star = from_edges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_EQ(ifub_diameter(star).diameter, 2u);
  // Complete graph: diameter 1.
  const Graph k4 =
      from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(ifub_diameter(k4).diameter, 1u);
}

TEST(Ifub, KFourMinusOneEdgeRegression) {
  // K4 without {2, 3}: D = 2, and every vertex sits within one hop of the
  // root. Stopping once lower > 2(i - 1), before level i was scanned,
  // returned 1: the proven bound at that point is only max(lower, 2i).
  const Graph graph = from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}});
  EXPECT_EQ(ifub_diameter(graph).diameter, 2u);
  EXPECT_EQ(brute_force_diameter(graph), 2u);
}

TEST(Ifub, ExactMatchesBruteForceOnManySmallGraphs) {
  Rng rng(20240613);
  int mismatches = 0;
  for (int trial = 0; trial < 120000; ++trial) {
    const Graph graph = random_small_connected(rng);
    const std::uint32_t exact = brute_force_diameter(graph);
    if (ifub_diameter(graph).diameter != exact && ++mismatches <= 5) {
      ADD_FAILURE() << "trial " << trial << ": n=" << graph.num_vertices()
                    << " m=" << graph.num_edges() << " D=" << exact;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Ifub, BucketBoundSharesTheExactBucket) {
  const auto check = [](const Graph& graph, std::uint32_t exact) {
    const DiameterResult bucket =
        ifub_diameter(graph, DiameterStop::kOmegaBucket);
    EXPECT_GE(bucket.diameter, exact);
    EXPECT_EQ(omega_bucket(bucket.diameter + 1), omega_bucket(exact + 1))
        << "D=" << exact << " bound=" << bucket.diameter;
    // The bucket stop is weaker than the exact one: never more work.
    EXPECT_LE(bucket.num_bfs, ifub_diameter(graph).num_bfs);
  };
  Rng rng(77);
  for (int trial = 0; trial < 20000; ++trial) {
    const Graph graph = random_small_connected(rng);
    check(graph, brute_force_diameter(graph));
  }
  for (const Graph& graph : family_graphs())
    check(graph, brute_force_diameter(graph));
  check(path_graph(40), 39);
}

TEST(Ifub, BucketBoundOnBarabasiAlbertTakesFourEccentricities) {
  // Two sweeps, the root, and the hub already bracket D in one bucket on
  // the BA structure whose exact iFUB needs well over a thousand.
  const Graph graph = gen::barabasi_albert(10000, 4, 2);
  const DiameterResult bucket =
      ifub_diameter(graph, DiameterStop::kOmegaBucket);
  EXPECT_LE(bucket.num_bfs, 4u);
  EXPECT_EQ(vertex_diameter(graph, /*ifub=*/true).num_bfs, bucket.num_bfs);
}

TEST(OmegaBucket, IsFloorLog2OfVertexDiameterMinusTwo) {
  for (std::uint32_t vd = 0; vd < 5000; ++vd) {
    const double expected =
        vd > 2 ? std::floor(std::log2(static_cast<double>(vd - 2))) : 0.0;
    EXPECT_EQ(static_cast<double>(omega_bucket(vd)), expected) << vd;
  }
  EXPECT_EQ(omega_bucket(0xffffffffu), 31u);
}

TEST(Ifub, SingleVertex) {
  EXPECT_EQ(ifub_diameter(from_edges(1, {})).diameter, 0u);
}

TEST(Ifub, MatchesBruteForceOnRandomGraphs) {
  for (const std::uint64_t seed : {5ull, 6ull, 7ull, 8ull, 9ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(150, 280, seed));
    EXPECT_EQ(ifub_diameter(graph).diameter, brute_force_diameter(graph))
        << "seed " << seed;
  }
}

TEST(Ifub, MatchesBruteForceOnRoadLikeGraphs) {
  gen::RoadParams params;
  params.width = 24;
  params.height = 12;
  const Graph graph = gen::road(params, 3);
  EXPECT_EQ(ifub_diameter(graph).diameter, brute_force_diameter(graph));
}

TEST(Ifub, UsesFewBfsOnHighDiameterGraphs) {
  // On high-diameter graphs the two-sweep lower bound is (near-)tight and
  // the midpoint root has eccentricity ~ D/2, so iFUB terminates almost
  // immediately - its selling point.
  gen::RoadParams params;
  params.width = 80;
  params.height = 20;
  const Graph graph = gen::road(params, 13);
  const DiameterResult result = ifub_diameter(graph);
  EXPECT_LT(result.num_bfs, 30u);
}

TEST(Ifub, BoundedWorkOnLowDiameterGraphs) {
  // Erdos-Renyi is iFUB's weak case (no tight lower bound from sweeps);
  // it must still finish well below the trivial n-BFS brute force.
  const Graph graph = largest_component(gen::erdos_renyi(400, 1600, 13));
  const DiameterResult result = ifub_diameter(graph);
  EXPECT_LT(result.num_bfs, graph.num_vertices() / 2);
}

TEST(VertexDiameter, ExactIsDiameterPlusOne) {
  // On a path the two-sweep bound is tight, so even the bucket-stopped
  // iFUB returns the exact vertex diameter.
  const Graph graph = path_graph(9);
  EXPECT_EQ(vertex_diameter(graph, /*ifub=*/true).value, 9u);
}

TEST(VertexDiameter, ApproximationUpperBoundsExact) {
  for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
    const Graph graph = largest_component(gen::erdos_renyi(150, 300, seed));
    const std::uint32_t exact = ifub_diameter(graph).diameter + 1;
    const std::uint32_t bucket = vertex_diameter(graph, true).value;
    const std::uint32_t approx = vertex_diameter(graph, false).value;
    EXPECT_GE(bucket, exact);
    EXPECT_GE(approx, bucket);  // both derive from the midpoint eccentricity
    EXPECT_LE(approx, 2 * exact);  // 2-approximation
  }
}

TEST(VertexDiameter, SingleVertex) {
  EXPECT_EQ(vertex_diameter(from_edges(1, {}), true).value, 1u);
  EXPECT_EQ(vertex_diameter(from_edges(1, {}), false).value, 1u);
}

}  // namespace
}  // namespace distbc::graph
