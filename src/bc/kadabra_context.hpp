// Shared preparation logic for all KADABRA drivers (sequential,
// shared-memory, MPI): phase 1 (diameter -> omega) and phase 2
// (calibration) produce a KadabraContext; phase 3 (adaptive sampling)
// consults stop_satisfied() on consistent aggregated state frames.
//
// The context reads the one betweenness frame, epoch::SparseFrame, whatever
// wire representation carried it, so the same stopping machinery serves
// every representation.
#pragma once

#include <cstdint>
#include <span>

#include "bc/calibration.hpp"
#include "bc/kadabra_math.hpp"
#include "epoch/sparse_frame.hpp"
#include "graph/diameter.hpp"
#include "graph/graph.hpp"
#include "support/assert.hpp"

namespace distbc::bc {

struct KadabraContext {
  KadabraParams params;
  std::uint32_t vertex_diameter = 0;
  std::uint64_t omega = 0;
  std::uint64_t initial_samples = 0;
  Calibration calibration;

  /// Evaluates KADABRA's stopping condition on an aggregated state frame.
  /// The frame must be a consistent snapshot (f and g are not monotone).
  [[nodiscard]] bool stop_satisfied(
      const epoch::SparseFrame& aggregate) const {
    const std::uint64_t tau = aggregate.tau();
    if (tau == 0) return false;
    if (tau >= omega) return true;  // VC-dimension budget exhausted

    const double omega_d = static_cast<double>(omega);
    const std::uint32_t n = aggregate.num_vertices();
    for (std::uint32_t v = 0; v < n; ++v) {
      const double b_tilde = static_cast<double>(aggregate.count(v)) /
                             static_cast<double>(tau);
      if (stopping_f(b_tilde, calibration.delta_l[v], omega_d, tau) >=
          params.epsilon) {
        return false;
      }
      if (stopping_g(b_tilde, calibration.delta_u[v], omega_d, tau) >=
          params.epsilon) {
        return false;
      }
    }
    return true;
  }
};

/// Phase 1: vertex-diameter upper bound of the (connected) input graph -
/// iFUB stopped at the omega bucket, or the 2-approximation - and the
/// eccentricities it took.
[[nodiscard]] graph::VertexDiameterBound kadabra_vertex_diameter(
    const graph::Graph& graph, const KadabraParams& params);

/// Derives omega and the calibration sample count from the diameter.
[[nodiscard]] KadabraContext begin_context(const KadabraParams& params,
                                           std::uint32_t vertex_diameter);

/// Phase 2 completion: calibrate per-vertex failure shares from the
/// aggregated non-adaptive samples. Zero-copy: the frame exposes its dense
/// counts-then-tau layout through a const raw() span.
void finish_calibration(KadabraContext& context,
                        const epoch::SparseFrame& initial_frame);

}  // namespace distbc::bc
