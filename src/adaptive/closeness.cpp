#include "adaptive/closeness.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "api/session.hpp"
#include "engine/engine.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "support/random.hpp"
#include "tune/tuner.hpp"

namespace distbc::adaptive {

std::vector<graph::Vertex> ClosenessResult::top_k(std::size_t k) const {
  std::vector<graph::Vertex> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<graph::Vertex>(i);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](graph::Vertex a, graph::Vertex b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

std::uint64_t closeness_sample_bound(std::uint32_t num_vertices,
                                     double epsilon, double delta) {
  // Hoeffding + union bound over all vertices: tau >= ln(2n/delta)/(2 eps^2).
  return static_cast<std::uint64_t>(
      std::ceil(std::log(2.0 * num_vertices / delta) /
                (2.0 * epsilon * epsilon)));
}

namespace {

/// One sample: a full BFS from a uniform source, crediting 1/d to every
/// reached vertex. The BFS workspace is shared by the streams of one
/// physical thread (engine::ThreadWorkspaces).
class SourceSampler {
 public:
  SourceSampler(const graph::Graph& graph, Rng rng,
                std::shared_ptr<graph::BfsWorkspace> ws)
      : graph_(&graph), ws_(std::move(ws)), rng_(rng) {}

  void sample(ClosenessFrame& frame) {
    const auto source = static_cast<graph::Vertex>(
        rng_.next_bounded(graph_->num_vertices()));
    graph::bfs(*graph_, source, *ws_);
    for (const graph::Vertex v : ws_->queue()) {
      if (v == source) continue;
      frame.add_credit(v, 1.0 / static_cast<double>(ws_->dist(v)));
    }
    frame.finish_source();
  }

 private:
  const graph::Graph* graph_;
  std::shared_ptr<graph::BfsWorkspace> ws_;
  Rng rng_;
};

}  // namespace

ClosenessResult closeness_rank(const graph::Graph& graph,
                               const ClosenessParams& params,
                               mpisim::Comm& world) {
  const graph::Vertex n = graph.num_vertices();
  DISTBC_ASSERT(n >= 2);
  const bool is_root = world.rank() == 0;
  if (is_root && !params.assume_connected) {
    DISTBC_ASSERT_MSG(graph::is_connected(graph),
                      "closeness_mpi requires a connected graph");
  }

  const double log_bernstein =
      std::log(3.0 * static_cast<double>(n) / params.delta);
  const double hoeffding_radius_log =
      std::log(2.0 * static_cast<double>(n) / params.delta) / 2.0;

  // `options` is read at each call: the tuner below may change the thread
  // count between the cost probe and the run.
  engine::EngineOptions options = params.engine;
  engine::ThreadWorkspaces<graph::BfsWorkspace> workspaces(n);
  auto make_sampler = [&](std::uint64_t stream) {
    return SourceSampler(graph, Rng(params.seed).split(stream),
                         workspaces.for_stream(stream, options, world.size()));
  };
  auto should_stop = [&](const ClosenessFrame& aggregate) {
    const std::uint64_t tau = aggregate.sources();
    if (tau < 2) return false;
    const auto tau_d = static_cast<double>(tau);
    const double hoeffding = std::sqrt(hoeffding_radius_log / tau_d);
    if (hoeffding <= params.epsilon) return true;  // global worst case
    for (graph::Vertex v = 0; v < n; ++v) {
      const double bernstein =
          std::sqrt(2.0 * aggregate.variance(v) * log_bernstein / tau_d) +
          3.0 * log_bernstein / tau_d;
      if (std::min(hoeffding, bernstein) > params.epsilon) return false;
    }
    return true;
  };

  // First-stop-check clamp mirroring KADABRA's omega/2 rule: the Hoeffding
  // worst case bounds the useful sample count, so an epoch must never run
  // past a fraction of it or easy (low-variance) instances overshoot the
  // adaptive stopping point before the first check.
  if (params.auto_tune != nullptr) {
    ClosenessFrame probe(n);  // one O(n) frame serves size query and probe
    tune::TuneRequest request;
    request.frame_words = probe.raw().size();
    // A BFS source credits every vertex: samples write the whole frame, so
    // the tuner's frame_rep decision resolves to dense.
    request.touched_words_per_sample =
        static_cast<double>(probe.raw().size());
    request.sample_seconds = tune::measure_sample_seconds(probe, make_sampler);
    // All ranks must agree on the tuned epoch schedule.
    world.bcast(std::span{&request.sample_seconds, 1}, 0);
    request.base = options;
    options = tune::tuned_options(*params.auto_tune, request);
  }
  options.max_epoch_length = engine::paced_epoch_cap(
      closeness_sample_bound(n, params.epsilon, params.delta),
      /*budget_fraction=*/8, /*min_epoch_length=*/1,
      options.max_epoch_length);

  auto driver_result = engine::run_epochs(&world, ClosenessFrame(n),
                                          make_sampler, should_stop, options);

  ClosenessResult result;
  result.epochs = driver_result.epochs;
  result.total_seconds = driver_result.total_seconds;
  result.engine_used = options;
  if (is_root) {
    result.phases = driver_result.phases;
    result.comm_volume = driver_result.comm_volume;
    const ClosenessFrame& frame = driver_result.aggregate;
    result.samples = frame.sources();
    result.scores.resize(n);
    // E[credit at v] = ((n-1)/n) h(v); correct by n/(n-1).
    const double correction = static_cast<double>(n) / (n - 1.0);
    for (graph::Vertex v = 0; v < n; ++v) {
      result.scores[v] = frame.credit_sum(v) /
                         static_cast<double>(frame.sources()) * correction;
    }
  }
  return result;
}

ClosenessResult closeness_mpi(const graph::Graph& graph,
                              const ClosenessParams& params, int num_ranks,
                              int ranks_per_node,
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
  return session.closeness(params);
}

}  // namespace distbc::adaptive
