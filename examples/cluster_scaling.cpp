// Demonstrates the library's cluster-facing API: bind a graph to a
// simulated cluster shape through api::Session (which owns the runtime and
// its communicators - no direct mpisim plumbing here), run betweenness
// queries across rank counts on the selected network preset, and report
// scaling plus the per-collective communication-volume breakdown
// (mpisim::CommVolume).
//
//   ./cluster_scaling [scale=13] [eps=0.005] [latency_us=2]
//                     [frame_rep=dense|sparse|auto] [tree_radix=0|2|...]
//                     [rpn=1] [leader_radix=0|2|...]
//                     [substrate=mpisim|ncclsim]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "api/session.hpp"
#include "gen/hyperbolic.hpp"
#include "graph/components.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  const Options options(argc, argv);
  options.describe("scale", "log2 vertices of the hyperbolic proxy");
  options.describe("latency_us", "inter-node latency (us)");
  options.describe("eps", "betweenness epsilon");
  options.describe("frame_rep",
                   "wire representation of epoch frames (dense|sparse|auto)");
  options.describe("tree_radix",
                   "tree-merge fan-in for sparse images (0 = flat)");
  options.describe("rpn",
                   "simulated ranks per node (>1 enables the two-level "
                   "hierarchical path)");
  options.describe("leader_radix",
                   "leader-tree fan-in of the two-level path "
                   "(0 = inherit tree_radix; needs rpn>1)");
  options.describe("substrate",
                   "network preset the collectives are priced with "
                   "(mpisim|ncclsim)");
  options.finish("Rank-scaling sweep on a simulated cluster.");

  gen::HyperbolicParams gen_params;
  gen_params.num_vertices =
      1u << static_cast<std::uint32_t>(options.get_u64("scale", 13));
  gen_params.average_degree = 30.0;
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::hyperbolic(gen_params, 21)));
  const std::string rep_name = options.get_string("frame_rep", "auto");
  const auto parsed_rep = epoch::frame_rep_from_name(rep_name);
  if (!parsed_rep) {
    std::fprintf(stderr,
                 "unknown frame_rep '%s' (valid: dense, sparse, auto)\n",
                 rep_name.c_str());
    return 2;
  }
  const std::string substrate_name = options.get_string("substrate", "mpisim");
  const auto substrate = mpisim::substrate_from_name(substrate_name);
  if (!substrate) {
    std::fprintf(stderr, "unknown substrate '%s' (valid: mpisim, ncclsim)\n",
                 substrate_name.c_str());
    return 2;
  }
  const epoch::FrameRep frame_rep = *parsed_rep;
  const auto tree_radix =
      static_cast<int>(options.get_u64("tree_radix", 0));
  const auto ranks_per_node =
      static_cast<int>(options.get_u64("rpn", 1));
  const auto leader_radix =
      static_cast<int>(options.get_u64("leader_radix", 0));
  std::printf("web proxy: %u vertices, %llu edges, frame_rep=%s, "
              "tree_radix=%d, rpn=%d, leader_radix=%d, substrate=%s\n\n",
              graph->num_vertices(),
              static_cast<unsigned long long>(graph->num_edges()),
              epoch::frame_rep_name(frame_rep), tree_radix, ranks_per_node,
              leader_radix, substrate_name.c_str());

  mpisim::NetworkModel network;
  network.remote_latency_s = options.get_double("latency_us", 2.0) * 1e-6;

  std::printf("%-8s %-10s %-10s %-8s %-9s %-12s %-12s %-12s\n", "ranks",
              "total(s)", "sample(s)", "epochs", "speedup", "reduce(B)",
              "merge(B)", "bcast(B)");
  double base_time = 0.0;
  for (const int ranks : {1, 2, 4, 8, 16}) {
    api::Config config;
    config.ranks = ranks;
    config.ranks_per_node = std::clamp(ranks_per_node, 1, ranks);
    config.network = network;
    config.comm_substrate = *substrate;
    config.seed = 5;
    config.frame_rep = frame_rep;
    config.tree_radix = tree_radix;
    config.hierarchical = config.ranks_per_node > 1;
    config.leader_radix = leader_radix;

    api::Session session(graph, config);
    api::BetweennessQuery query;
    query.epsilon = options.get_double("eps", 0.005);
    const api::Result result = session.run(query);
    if (!result.status.ok) {
      std::fprintf(stderr, "query failed: %s\n", result.status.message.c_str());
      return 1;
    }

    if (ranks == 1) base_time = result.total_seconds;
    const mpisim::CommVolume& volume = result.comm_volume;
    std::printf("%-8d %-10.2f %-10.2f %-8llu %-9.2f %-12llu %-12llu %-12llu\n",
                ranks, result.total_seconds,
                result.phases.seconds(Phase::kSampling),
                static_cast<unsigned long long>(result.epochs),
                base_time / result.total_seconds,
                static_cast<unsigned long long>(volume.reduce_bytes),
                static_cast<unsigned long long>(volume.reduce_merge_bytes),
                static_cast<unsigned long long>(volume.bcast_bytes));
  }
  std::printf("\nNear-linear scaling through P=8, flattening at 16 as the "
              "sequential phases\n(diameter, calibration) gain weight - the "
              "paper's Fig. 2a in miniature. With\nframe_rep=sparse|auto the "
              "reduce column collapses into the (far smaller)\nmerge column: "
              "aggregation bytes follow samples taken, not |V|. The network\n"
              "preset changes the modeled clock, never the scores.\n");
  return 0;
}
