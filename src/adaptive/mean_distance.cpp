#include "adaptive/mean_distance.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "api/session.hpp"
#include "engine/engine.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/random.hpp"
#include "tune/tuner.hpp"

namespace distbc::adaptive {

double MomentFrame::variance() const {
  const std::uint64_t n = count();
  if (n < 2) return 0.0;
  const double mean_value = mean();
  const double raw_second =
      static_cast<double>(data_[2]) / static_cast<double>(n);
  const double biased = raw_second - mean_value * mean_value;
  return std::max(0.0, biased * static_cast<double>(n) /
                           static_cast<double>(n - 1));
}

double bernstein_half_width(double variance, double range, double delta,
                            std::uint64_t n) {
  DISTBC_ASSERT(n > 0);
  const double log_term = std::log(3.0 / delta);
  return std::sqrt(2.0 * variance * log_term / static_cast<double>(n)) +
         3.0 * range * log_term / static_cast<double>(n);
}

namespace {

/// One sample: a uniform distinct pair's shortest-path distance. The
/// traversal kernel is shared by the streams of one physical thread
/// (engine::ThreadWorkspaces).
class DistanceSampler {
 public:
  DistanceSampler(const graph::Graph& graph, Rng rng,
                  std::shared_ptr<graph::BidirectionalBfs> bfs)
      : graph_(&graph), bfs_(std::move(bfs)), rng_(rng) {}

  void sample(MomentFrame& frame) {
    const auto [s, t] = rng_.next_distinct_pair(graph_->num_vertices());
    const auto pair = bfs_->run(*graph_, static_cast<graph::Vertex>(s),
                                static_cast<graph::Vertex>(t));
    DISTBC_ASSERT_MSG(pair.connected,
                      "mean_distance requires a connected graph");
    frame.record(pair.distance);
  }

 private:
  const graph::Graph* graph_;
  std::shared_ptr<graph::BidirectionalBfs> bfs_;
  Rng rng_;
};

}  // namespace

MeanDistanceResult mean_distance_rank(const graph::Graph& graph,
                                      const MeanDistanceParams& params,
                                      mpisim::Comm& world) {
  DISTBC_ASSERT(graph.num_vertices() >= 2);
  const bool is_root = world.rank() == 0;

  // Range bound for the Bernstein term: cheap 2-approximate diameter,
  // computed once at rank 0 and broadcast (mirrors KADABRA's phase 1) -
  // or reused from a previous run via params.known_range.
  std::uint32_t range = params.known_range;
  if (range == 0) {
    if (is_root) {
      DISTBC_ASSERT_MSG(params.assume_connected ||
                            graph::is_connected(graph),
                        "mean_distance requires a connected graph");
      range = graph::vertex_diameter(graph, /*ifub=*/false).value;
    }
    world.bcast(std::span{&range, 1}, 0);
  }

  // `engine_options` is read at each call: the tuner below may change the
  // thread count between the cost probe and the run.
  engine::EngineOptions engine_options = params.engine;
  engine::ThreadWorkspaces<graph::BidirectionalBfs> kernels(
      graph.num_vertices());
  auto make_sampler = [&](std::uint64_t stream) {
    return DistanceSampler(
        graph, Rng(params.seed).split(stream),
        kernels.for_stream(stream, engine_options, world.size()));
  };
  auto should_stop = [&](const MomentFrame& aggregate) {
    const std::uint64_t n = aggregate.count();
    if (n < 2) return false;
    return bernstein_half_width(aggregate.variance(), range, params.delta,
                                n) <= params.epsilon;
  };

  if (params.auto_tune != nullptr) {
    tune::TuneRequest request;
    request.frame_words = MomentFrame{}.raw().size();
    // Every sample writes all three moment words; a sparse image of three
    // slots is larger than the frame, so the tuner keeps dense.
    request.touched_words_per_sample = 3.0;
    request.sample_seconds =
        tune::measure_sample_seconds(MomentFrame{}, make_sampler);
    // All ranks must agree on the tuned epoch schedule.
    world.bcast(std::span{&request.sample_seconds, 1}, 0);
    request.base = engine_options;
    engine_options = tune::tuned_options(*params.auto_tune, request);
  }
  auto driver_result = engine::run_epochs(&world, MomentFrame{}, make_sampler,
                                          should_stop, engine_options);

  MeanDistanceResult result;
  result.epochs = driver_result.epochs;
  result.range = range;
  result.total_seconds = driver_result.total_seconds;
  result.engine_used = engine_options;
  if (is_root) {
    result.phases = driver_result.phases;
    result.comm_volume = driver_result.comm_volume;
    const MomentFrame& frame = driver_result.aggregate;
    result.mean = frame.mean();
    result.stddev = std::sqrt(frame.variance());
    result.samples = frame.count();
    result.half_width = bernstein_half_width(frame.variance(), range,
                                             params.delta, frame.count());
  }
  return result;
}

MeanDistanceResult mean_distance_mpi(const graph::Graph& graph,
                                     const MeanDistanceParams& params,
                                     int num_ranks, int ranks_per_node,
                                     mpisim::NetworkModel network) {
  // Compatibility layer: one-shot api::Session owning the cluster
  // lifecycle; the session binds the caller's graph without copying it.
  api::Config config;
  config.ranks = num_ranks;
  config.ranks_per_node = ranks_per_node;
  config.network = network;
  api::Session session(
      std::shared_ptr<const graph::Graph>(&graph, [](const graph::Graph*) {}),
      std::move(config));
  return session.mean_distance(params);
}

}  // namespace distbc::adaptive
