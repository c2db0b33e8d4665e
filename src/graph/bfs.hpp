// Breadth-first search kernels with O(1)-reset workspaces.
//
// Sampling-based betweenness takes millions of BFS-like probes; clearing a
// |V|-sized array per probe would dominate the runtime (the paper relies on
// samples costing < 10 ms on billion-edge graphs). Workspaces therefore use
// generation stamps: an entry is valid only if its stamp equals the current
// generation, and reset is a single counter increment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace distbc::graph {

/// Reusable BFS scratch space for one thread.
class BfsWorkspace {
 public:
  explicit BfsWorkspace(Vertex num_vertices)
      : stamp_(num_vertices, 0), dist_(num_vertices, 0) {
    queue_.reserve(num_vertices);
  }

  /// Invalidate all previous marks in O(1).
  void reset() {
    ++generation_;
    queue_.clear();
    if (generation_ == 0) {  // stamp wraparound: do the rare full clear
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
  }

  [[nodiscard]] bool visited(Vertex v) const {
    return stamp_[v] == generation_;
  }
  void mark(Vertex v, std::uint32_t dist) {
    stamp_[v] = generation_;
    dist_[v] = dist;
  }
  [[nodiscard]] std::uint32_t dist(Vertex v) const { return dist_[v]; }

  std::vector<Vertex>& queue() { return queue_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> dist_;
  std::vector<Vertex> queue_;
};

struct BfsSummary {
  std::uint32_t eccentricity = 0;  // max distance reached from the source
  std::uint64_t reached = 0;       // vertices reached (including the source)
  Vertex farthest = kInvalidVertex;  // one vertex at maximum distance
};

/// Full BFS from `source`; distances stay in `ws` until its next reset.
BfsSummary bfs(const Graph& graph, Vertex source, BfsWorkspace& ws);

/// Convenience wrapper producing a dense distance vector
/// (kUnreachable for vertices in other components).
inline constexpr std::uint32_t kUnreachable = 0xffffffffu;
std::vector<std::uint32_t> bfs_distances(const Graph& graph, Vertex source);

/// Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
/// PVLDB 8(4), 2014) computing the eccentricities of up to kLanes sources
/// in one traversal. Lane j of every per-vertex word belongs to source j:
/// `seen` holds the lanes that reached the vertex, `frontier` the lanes
/// that reached it at the current level. A vertex's adjacency list is read
/// once per level at which some lane reaches it, not once per lane, so on
/// small-world graphs a batch costs a few scalar BFS instead of kLanes.
class EccentricityBatch {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit EccentricityBatch(Vertex num_vertices)
      : seen_(num_vertices, 0), frontier_(num_vertices, 0),
        next_(num_vertices, 0) {}

  /// Writes to ecc[j] the eccentricity of sources[j] within its component
  /// (equal to bfs(graph, sources[j], ws).eccentricity).
  /// 1 <= sources.size() <= kLanes, ecc.size() == sources.size().
  void run(const Graph& graph, std::span<const Vertex> sources,
           std::span<std::uint32_t> ecc);

 private:
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> frontier_;
  std::vector<std::uint64_t> next_;
  std::vector<Vertex> frontier_list_;
  std::vector<Vertex> next_list_;
  std::vector<Vertex> touched_;
};

}  // namespace distbc::graph
