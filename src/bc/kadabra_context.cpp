#include "bc/kadabra_context.hpp"

#include "graph/components.hpp"

namespace distbc::bc {

graph::VertexDiameterBound kadabra_vertex_diameter(
    const graph::Graph& graph, const KadabraParams& params) {
  DISTBC_ASSERT_MSG(graph::is_connected(graph),
                    "KADABRA drivers expect the largest connected component");
  return graph::vertex_diameter(graph, params.exact_diameter);
}

KadabraContext begin_context(const KadabraParams& params,
                             std::uint32_t vertex_diameter) {
  KadabraContext context;
  context.params = params;
  context.vertex_diameter = vertex_diameter;
  context.omega = compute_omega(vertex_diameter, params.epsilon, params.delta);
  context.initial_samples = params.initial_samples != 0
                                ? params.initial_samples
                                : auto_initial_samples(context.omega);
  return context;
}

void finish_calibration(KadabraContext& context,
                        const epoch::SparseFrame& initial_frame) {
  DISTBC_ASSERT(initial_frame.tau() > 0);
  const std::span<const std::uint64_t> raw(initial_frame.raw());
  context.calibration =
      calibrate(raw.subspan(0, initial_frame.num_vertices()),
                initial_frame.tau(), context.params.epsilon,
                context.params.delta, context.params.balancing);
}

}  // namespace distbc::bc
