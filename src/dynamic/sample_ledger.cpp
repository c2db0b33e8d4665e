#include "dynamic/sample_ledger.hpp"

#include <algorithm>

#include "graph/bfs.hpp"
#include "support/assert.hpp"

namespace distbc::dynamic {

namespace {

void distinct_endpoints(std::span<const Edge> edges,
                        std::vector<graph::Vertex>& out) {
  out.clear();
  for (const Edge& edge : edges) {
    out.push_back(edge.u);
    out.push_back(edge.v);
  }
  std::ranges::sort(out);
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::uint32_t path_distance(bool connected,
                            std::span<const graph::Vertex> path) {
  return connected ? static_cast<std::uint32_t>(path.size() + 1)
                   : graph::kUnreachable;
}

}  // namespace

void SampleLedger::record(graph::Vertex s, graph::Vertex t, bool connected,
                          std::span<const graph::Vertex> path) {
  records_.push_back({s, t, path_distance(connected, path),
                      std::vector<graph::Vertex>(path.begin(), path.end())});
}

void SampleLedger::replace(std::size_t index, bool connected,
                           std::span<const graph::Vertex> path) {
  DISTBC_ASSERT(index < records_.size());
  Record& slot = records_[index];
  slot.distance = path_distance(connected, path);
  slot.path.assign(path.begin(), path.end());
}

std::optional<std::vector<std::uint32_t>> SampleLedger::classify(
    const graph::Graph& before, const graph::Graph& after,
    const EdgeBatch& batch, double budget) {
  DISTBC_ASSERT_MSG(batch.validated(),
                    "SampleLedger::classify requires a validated EdgeBatch");
  DISTBC_ASSERT(before.num_vertices() == after.num_vertices());
  const std::size_t n = after.num_vertices();
  distinct_endpoints(batch.deletes(), deleted_ends_);
  distinct_endpoints(batch.inserts(), inserted_ends_);
  const auto runs =
      static_cast<double>(deleted_ends_.size() + inserted_ends_.size());
  if (runs * static_cast<double>(n + after.num_arcs()) > budget)
    return std::nullopt;
  // One distance row per endpoint, by BFS on the graph that holds its
  // edges: old rows first, new rows after them.
  rows_.clear();
  const auto add_rows = [&](const graph::Graph& graph,
                            std::span<const graph::Vertex> sources) {
    for (const graph::Vertex source : sources) {
      const std::size_t base = rows_.size();
      rows_.resize(base + n, graph::kUnreachable);
      std::uint32_t* dist = rows_.data() + base;
      dist[source] = 0;
      queue_.assign(1, source);
      for (std::size_t head = 0; head < queue_.size(); ++head) {
        const graph::Vertex u = queue_[head];
        for (const graph::Vertex w : graph.neighbors(u)) {
          if (dist[w] != graph::kUnreachable) continue;
          dist[w] = dist[u] + 1;
          queue_.push_back(w);
        }
      }
    }
  };
  add_rows(before, deleted_ends_);
  add_rows(after, inserted_ends_);

  // Per batch edge, the distance rows of its endpoints.
  struct EdgeRows {
    const std::uint32_t* u;
    const std::uint32_t* v;
  };
  std::vector<EdgeRows> edges;
  const auto add_edges = [&](std::span<const Edge> list,
                             const std::vector<graph::Vertex>& ends,
                             std::size_t first_row) {
    const auto row = [&](graph::Vertex v) {
      const auto index = std::ranges::lower_bound(ends, v) - ends.begin();
      return rows_.data() + (first_row + static_cast<std::size_t>(index)) * n;
    };
    for (const Edge& edge : list) edges.push_back({row(edge.u), row(edge.v)});
  };
  add_edges(batch.deletes(), deleted_ends_, 0);
  add_edges(batch.inserts(), inserted_ends_, deleted_ends_.size());

  // 64-bit sums: an unreachable endpoint (kUnreachable) never passes, and
  // any finite walk passes for a disconnected pair (distance kUnreachable).
  std::vector<std::uint32_t> dirty;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::uint64_t d = r.distance;
    const auto on_a_shortest_path = [&](const EdgeRows& e) {
      return std::uint64_t{e.u[r.s]} + 1 + e.v[r.t] <= d ||
             std::uint64_t{e.v[r.s]} + 1 + e.u[r.t] <= d;
    };
    if (std::ranges::any_of(edges, on_a_shortest_path))
      dirty.push_back(static_cast<std::uint32_t>(i));
  }
  return dirty;
}

}  // namespace distbc::dynamic
