#include "graph/diameter.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "graph/components.hpp"

namespace distbc::graph {

namespace {

Vertex max_degree_vertex(const Graph& graph) {
  Vertex best = 0;
  std::uint64_t best_degree = 0;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (graph.degree(v) > best_degree) {
      best_degree = graph.degree(v);
      best = v;
    }
  }
  return best;
}

}  // namespace

TwoSweepResult two_sweep(const Graph& graph) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  BfsWorkspace ws(graph.num_vertices());

  const Vertex start = max_degree_vertex(graph);
  const BfsSummary first = bfs(graph, start, ws);
  const Vertex a = first.farthest;
  const BfsSummary second = bfs(graph, a, ws);

  TwoSweepResult result;
  result.lower_bound = second.eccentricity;
  result.periphery = a;

  // Retrace half of the a->farthest path inside the second BFS tree to find
  // the midpoint: a good iFUB root with small eccentricity.
  Vertex current = second.farthest;
  std::uint32_t depth = second.eccentricity;
  const std::uint32_t half = depth / 2;
  while (depth > half) {
    for (const Vertex w : graph.neighbors(current)) {
      if (ws.visited(w) && ws.dist(w) == depth - 1) {
        current = w;
        break;
      }
    }
    --depth;
  }
  result.midpoint = current;
  return result;
}

std::uint32_t omega_bucket(std::uint32_t vertex_diameter) {
  return vertex_diameter > 2
             ? static_cast<std::uint32_t>(std::bit_width(vertex_diameter - 2)) -
                   1
             : 0;
}

DiameterResult ifub_diameter(const Graph& graph, DiameterStop stop) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  DISTBC_ASSERT_MSG(is_connected(graph), "iFUB requires a connected graph");

  DiameterResult result;
  if (graph.num_vertices() == 1) return result;

  const TwoSweepResult sweep = two_sweep(graph);
  result.num_bfs = 2;

  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary root_bfs = bfs(graph, sweep.midpoint, ws);
  ++result.num_bfs;

  // Bucket vertices of the root BFS tree by level.
  std::vector<std::vector<Vertex>> levels(root_bfs.eccentricity + 1);
  for (const Vertex v : ws.queue()) levels[ws.dist(v)].push_back(v);

  std::uint32_t lower = std::max(sweep.lower_bound, root_bfs.eccentricity);
  // D <= 2 ecc(v) for every v. The midpoint root and the max-degree hub
  // are the best candidates for ecc = ceil(D/2); when one of them achieves
  // it, the bounds meet before any fringe level is scanned - this covers
  // the even-diameter case where the level bound alone would scan an
  // entire fringe level (e.g. D = 4 complex networks).
  std::uint32_t upper = 2 * root_bfs.eccentricity;
  {
    const BfsSummary hub_bfs = bfs(graph, max_degree_vertex(graph), ws);
    ++result.num_bfs;
    lower = std::max(lower, hub_bfs.eccentricity);
    upper = std::min(upper, 2 * hub_bfs.eccentricity);
  }

  // iFUB's level bound: once every vertex at depth > i has its
  // eccentricity in `lower`, a longer path joins two vertices at depth
  // <= i, so D <= max(lower, 2i). While level i is still being scanned,
  // that is the bound; only a finished level tightens it to 2(i - 1).
  // Returns the proven upper bound if the bounds are settled, else 0
  // (proven >= lower >= 1 on a connected graph of two or more vertices).
  const auto settled = [&](std::uint32_t level_bound) -> std::uint32_t {
    const std::uint32_t proven = std::min(upper, std::max(lower, level_bound));
    const bool done = stop == DiameterStop::kExact
                          ? lower >= proven
                          : omega_bucket(lower + 1) == omega_bucket(proven + 1);
    return done ? proven : 0;
  };

  EccentricityBatch batch(graph.num_vertices());
  std::vector<std::uint32_t> ecc(EccentricityBatch::kLanes);
  std::uint32_t bound = 0;
  for (std::uint32_t i = root_bfs.eccentricity; i > 0 && bound == 0; --i) {
    bound = settled(2 * i);
    const std::span<const Vertex> level = levels[i];
    for (std::size_t at = 0; at < level.size() && bound == 0;) {
      const std::size_t width =
          std::min(level.size() - at, EccentricityBatch::kLanes);
      batch.run(graph, level.subspan(at, width),
                std::span(ecc).first(width));
      result.num_bfs += width;
      at += width;
      for (std::size_t j = 0; j < width; ++j) {
        lower = std::max(lower, ecc[j]);
        upper = std::min(upper, 2 * ecc[j]);
      }
      bound = settled(2 * i);
    }
    if (bound == 0) bound = settled(2 * (i - 1));
  }
  // Level 1 finished proves D <= max(lower, 0): the loop always settles.
  DISTBC_ASSERT(bound != 0);
  result.diameter = bound;
  return result;
}

VertexDiameterBound vertex_diameter(const Graph& graph, bool ifub) {
  DISTBC_ASSERT(graph.num_vertices() > 0);
  if (graph.num_vertices() == 1) return {1, 0};
  if (ifub) {
    const DiameterResult ifub_result =
        ifub_diameter(graph, DiameterStop::kOmegaBucket);
    return {ifub_result.diameter + 1, ifub_result.num_bfs};
  }

  // Cheap upper bound: a shortest path cannot be longer than twice the
  // eccentricity of any vertex; use the two-sweep midpoint which has nearly
  // minimal eccentricity.
  const TwoSweepResult sweep = two_sweep(graph);
  BfsWorkspace ws(graph.num_vertices());
  const BfsSummary summary = bfs(graph, sweep.midpoint, ws);
  return {2 * summary.eccentricity + 1, 3};
}

}  // namespace distbc::graph
