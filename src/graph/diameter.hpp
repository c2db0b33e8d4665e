// Diameter computation for connected undirected graphs.
//
// KADABRA's and RK's sample budgets read the vertex diameter VD (= hop
// diameter + 1 on connected unweighted graphs) only through its omega
// bucket floor(log2(VD - 2)). The paper computes the diameter with the
// sequential BFS-based method of Borassi et al. (its Ref. [6]); we
// implement the same family:
//   - two_sweep: classic double-BFS lower bound,
//   - ifub_diameter: iFUB (Crescenzi et al., TCS 2013), either exact or
//     stopped as soon as its lower and upper bounds share an omega bucket.
//     The fringe eccentricities of each root-BFS level run up to 64 at a
//     time through one graph::EccentricityBatch.
#pragma once

#include <cstdint>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace distbc::graph {

struct TwoSweepResult {
  std::uint32_t lower_bound = 0;  // eccentricity found by the second sweep
  Vertex periphery = kInvalidVertex;  // endpoint realizing the bound
  Vertex midpoint = kInvalidVertex;   // middle vertex of the found path
};

/// Double sweep from the max-degree vertex: BFS to the farthest vertex u,
/// BFS again from u. Returns a diameter lower bound and the sweep midpoint
/// (a good iFUB root).
[[nodiscard]] TwoSweepResult two_sweep(const Graph& graph);

/// floor(log2(VD - 2)) for VD > 2, else 0: the only function of the vertex
/// diameter that the KADABRA and RK sample budgets depend on.
[[nodiscard]] std::uint32_t omega_bucket(std::uint32_t vertex_diameter);

/// When iFUB may stop.
enum class DiameterStop {
  kExact,        // lower bound == upper bound: the diameter itself
  kOmegaBucket,  // both bounds in one omega bucket: return the upper bound
};

struct DiameterResult {
  /// kExact: the diameter D. kOmegaBucket: an upper bound U >= D with
  /// omega_bucket(U + 1) == omega_bucket(D + 1).
  std::uint32_t diameter = 0;
  std::uint64_t num_bfs = 0;  // eccentricities computed (measure of work)
};

/// iFUB. Requires a connected graph. kExact can take many eccentricities
/// on low-diameter graphs with a wide fringe (tens of thousands on a BA
/// graph with 200k vertices), so the sampling drivers use kOmegaBucket.
[[nodiscard]] DiameterResult ifub_diameter(
    const Graph& graph, DiameterStop stop = DiameterStop::kExact);

/// A phase-1 upper bound on the vertex diameter and the eccentricities it
/// took.
struct VertexDiameterBound {
  std::uint32_t value = 0;
  std::uint64_t num_bfs = 0;
};

/// Upper bound on the vertex diameter (number of vertices on the longest
/// shortest path). `ifub` selects iFUB stopped at the omega bucket (the
/// bound lies in the exact value's bucket); otherwise the cheap
/// 2-approximation 2 * ecc(two-sweep midpoint) + 1 is returned.
[[nodiscard]] VertexDiameterBound vertex_diameter(const Graph& graph,
                                                  bool ifub);

}  // namespace distbc::graph
