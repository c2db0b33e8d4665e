#include "graph/bfs.hpp"

#include <bit>

namespace distbc::graph {

BfsSummary bfs(const Graph& graph, Vertex source, BfsWorkspace& ws) {
  DISTBC_ASSERT(source < graph.num_vertices());
  ws.reset();
  auto& queue = ws.queue();
  queue.push_back(source);
  ws.mark(source, 0);

  BfsSummary summary;
  summary.reached = 1;
  summary.farthest = source;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex u = queue[head];
    const std::uint32_t du = ws.dist(u);
    for (const Vertex w : graph.neighbors(u)) {
      if (ws.visited(w)) continue;
      ws.mark(w, du + 1);
      queue.push_back(w);
      ++summary.reached;
      if (du + 1 > summary.eccentricity) {
        summary.eccentricity = du + 1;
        summary.farthest = w;
      }
    }
  }
  return summary;
}

std::vector<std::uint32_t> bfs_distances(const Graph& graph, Vertex source) {
  BfsWorkspace ws(graph.num_vertices());
  bfs(graph, source, ws);
  std::vector<std::uint32_t> dist(graph.num_vertices(), kUnreachable);
  for (const Vertex v : ws.queue()) dist[v] = ws.dist(v);
  return dist;
}

void EccentricityBatch::run(const Graph& graph,
                            std::span<const Vertex> sources,
                            std::span<std::uint32_t> ecc) {
  DISTBC_ASSERT(!sources.empty() && sources.size() <= kLanes);
  DISTBC_ASSERT(ecc.size() == sources.size());
  DISTBC_ASSERT(graph.num_vertices() <= seen_.size());
  frontier_list_.clear();
  touched_.clear();
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const Vertex s = sources[j];
    DISTBC_ASSERT(s < graph.num_vertices());
    if (seen_[s] == 0) touched_.push_back(s);
    if (frontier_[s] == 0) frontier_list_.push_back(s);
    seen_[s] |= std::uint64_t{1} << j;
    frontier_[s] |= std::uint64_t{1} << j;
    ecc[j] = 0;
  }

  for (std::uint32_t level = 1; !frontier_list_.empty(); ++level) {
    next_list_.clear();
    std::uint64_t reached = 0;  // lanes that found a vertex at `level`
    for (const Vertex u : frontier_list_) {
      const std::uint64_t lanes = frontier_[u];
      frontier_[u] = 0;
      for (const Vertex w : graph.neighbors(u)) {
        const std::uint64_t fresh = lanes & ~seen_[w];
        if (fresh == 0) continue;
        if (seen_[w] == 0) touched_.push_back(w);
        if (next_[w] == 0) next_list_.push_back(w);
        seen_[w] |= fresh;
        next_[w] |= fresh;
        reached |= fresh;
      }
    }
    for (std::uint64_t rest = reached; rest != 0; rest &= rest - 1)
      ecc[static_cast<std::size_t>(std::countr_zero(rest))] = level;
    // Every frontier_ word is zero again: the arrays swap roles.
    frontier_.swap(next_);
    frontier_list_.swap(next_list_);
  }
  for (const Vertex v : touched_) seen_[v] = 0;
}

}  // namespace distbc::graph
