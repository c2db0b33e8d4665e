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

}  // namespace distbc::bc
