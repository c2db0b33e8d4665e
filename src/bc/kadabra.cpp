#include "bc/kadabra.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "api/session.hpp"
#include "bc/sampler.hpp"
#include "bc/topk.hpp"
#include "epoch/sparse_frame.hpp"
#include "graph/stats.hpp"
#include "support/timer.hpp"
#include "tune/tuner.hpp"

namespace distbc::bc {

BcResult kadabra_run(const graph::Graph& graph, const KadabraOptions& options,
                     mpisim::Comm* world) {
  DISTBC_ASSERT(options.engine.threads_per_rank >= 1);
  DISTBC_ASSERT(options.omega_fraction > 0);
  WallTimer total_timer;
  PhaseTimer phases;
  BcResult result;
  const graph::Vertex n = graph.num_vertices();
  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const bool is_root = rank == 0;
  const KadabraParams& params = options.params;
  if (n < 2) {
    if (is_root) result.scores.assign(n, 0.0);
    result.total_seconds = total_timer.elapsed_s();
    return result;
  }

  // The autotune path decides the thread count up front (calibration and
  // the adaptive phase must agree on the stream layout).
  engine::EngineOptions engine_options = options.engine;
  if (options.auto_tune != nullptr)
    engine_options.threads_per_rank =
        options.auto_tune->shape.threads_per_rank;
  // Calibration streams occupy stream indices [0, V); the adaptive phase
  // continues with fresh streams [V, 2V) so the adaptive guarantee is only
  // over fresh samples, as in KADABRA. The split holds whether or not a
  // warm start skips the calibration sampling itself.
  const std::uint64_t streams = engine::num_streams(engine_options, num_ranks);

  // Sampler factory for both phases: every stream of a physical thread
  // shares that thread's traversal kernel, so virtual streams do not grow
  // the per-thread working set.
  engine::ThreadWorkspaces<graph::BidirectionalBfs> kernels(n);
  const auto sampler_factory = [&](std::uint64_t base_stream) {
    return [&, base_stream](std::uint64_t v) {
      return PathSampler(graph, Rng(params.seed).split(base_stream + v),
                         kernels.for_stream(v, engine_options, num_ranks));
    };
  };

  std::shared_ptr<const KadabraWarmState> warm = options.warm_start;
  if (warm == nullptr) {
    auto state = std::make_shared<KadabraWarmState>();
    // Provenance for reuse-time validation (the fingerprint pass is one
    // linear CSR scan at rank 0 - noise next to the diameter phase).
    if (is_root) state->graph_fingerprint = graph::fingerprint(graph);
    state->ranks = num_ranks;
    state->threads_per_rank = engine_options.threads_per_rank;
    state->deterministic = engine_options.deterministic;
    state->virtual_streams = engine_options.virtual_streams;

    // --- Phase 1: diameter at rank zero (sequential, §IV-F), broadcast. --
    std::uint32_t vd = 0;
    if (is_root) {
      const graph::VertexDiameterBound bound =
          phases.timed(Phase::kDiameter, [&] {
            return kadabra_vertex_diameter(graph, params);
          });
      vd = bound.value;
      result.diameter_bfs = bound.num_bfs;
    }
    if (world != nullptr) world->bcast(std::span{&vd, 1}, 0);
    state->vertex_diameter = vd;
    state->context = begin_context(params, vd);

    // --- Phase 2: parallel calibration through the engine's hook. --------
    WallTimer calibration_timer;
    phases.timed(Phase::kCalibration, [&] {
      const epoch::SparseFrame initial =
          engine::calibrate(world, epoch::SparseFrame(n), sampler_factory(0),
                            state->context.initial_samples, engine_options);
      if (is_root) {
        finish_calibration(state->context, initial);
        // Average dense slots one sample writes (internal path vertices
        // plus the tau slot) - the wire-payload predictor the tuner prices
        // the frame_rep axis with.
        state->touched_words_per_sample =
            1.0 + static_cast<double>(initial.count_sum()) /
                      static_cast<double>(initial.tau());
      }
    });
    // Decentralized termination: every rank evaluates the stopping rule on
    // the distributed aggregate, so the calibrated per-vertex failure
    // shares must be identical everywhere, not just at rank zero.
    if (world != nullptr && num_ranks > 1) {
      Calibration& cal = state->context.calibration;
      if (!is_root) {
        cal.delta_l.assign(n, 0.0);
        cal.delta_u.assign(n, 0.0);
      }
      world->bcast(std::span<double>(cal.delta_l), 0);
      world->bcast(std::span<double>(cal.delta_u), 0);
      world->bcast(std::span{&cal.predicted_tau, 1}, 0);
    }
    // Per-sample cost in cluster CPU-seconds, measured on the calibration
    // phase this run just paid for anyway.
    if (state->context.initial_samples > 0) {
      state->sample_seconds =
          calibration_timer.elapsed_s() *
          static_cast<double>(num_ranks) * engine_options.threads_per_rank /
          static_cast<double>(state->context.initial_samples);
    }
    warm = std::move(state);
  }
  const KadabraContext& context = warm->context;
  result.warm = warm;

  // --- Phase 3: epoch-based adaptive sampling (Algorithm 2). -------------
  if (options.auto_tune != nullptr) {
    tune::TuneRequest request;
    request.frame_words = static_cast<std::size_t>(n) + 1;
    request.sample_seconds = warm->sample_seconds;
    request.touched_words_per_sample = warm->touched_words_per_sample;
    // Every rank must tune the same epoch schedule: use rank zero's
    // measurements everywhere.
    if (world != nullptr) {
      world->bcast(std::span{&request.sample_seconds, 1}, 0);
      world->bcast(std::span{&request.touched_words_per_sample, 1}, 0);
    }
    request.base = engine_options;
    engine_options = tune::tuned_options(*options.auto_tune, request);
  }
  // Distributed top-k extraction needs every rank's own partial aggregate;
  // single-rank runs select straight off the global aggregate instead.
  if (options.top_k > 0 && world != nullptr && num_ranks > 1)
    engine_options.local_aggregates = true;
  WallTimer adaptive_timer;
  // First-stop-check pacing: the one shared clamp (engine/streams.hpp).
  engine_options.max_epoch_length = engine::paced_epoch_cap(
      context.omega, options.omega_fraction, options.min_epoch_length,
      engine_options.max_epoch_length);
  const auto stop = [&](const epoch::SparseFrame& aggregate) {
    return context.stop_satisfied(aggregate);
  };
  auto driver =
      engine::run_epochs(world, epoch::SparseFrame(n),
                         sampler_factory(streams), stop, engine_options);
  result.adaptive_seconds = adaptive_timer.elapsed_s();

  phases.merge(driver.phases);
  result.engine_used = engine_options;
  result.epochs = driver.epochs;
  result.samples_attempted = driver.samples_attempted;

  // Top-k extraction: exact selection at the root - through the TPUT-style
  // gatherv protocol over the per-rank partials when multi-rank - then one
  // small broadcast, so every rank serves the same answer without a full
  // |V| frame ever moving.
  if (options.top_k > 0) {
    const auto k = std::min<std::size_t>(options.top_k, n);
    const std::vector<TopKEntry> top =
        world == nullptr || num_ranks <= 1
            ? local_top_k(driver.aggregate, k)
            : distributed_top_k(*world, driver.local_aggregate, k);
    std::uint64_t header[2] = {top.size(),
                               is_root ? driver.aggregate.tau() : 0};
    std::vector<std::uint64_t> packed;
    if (is_root) {
      for (const TopKEntry& entry : top) {
        packed.push_back(entry.vertex);
        packed.push_back(entry.count);
      }
    }
    if (world != nullptr && num_ranks > 1) {
      world->bcast(std::span<std::uint64_t>(header), 0);
      packed.resize(2 * header[0]);
      if (!packed.empty()) world->bcast(std::span<std::uint64_t>(packed), 0);
    }
    const auto tau = static_cast<double>(header[1]);
    result.top_k_pairs.clear();
    for (std::size_t i = 0; i + 1 < packed.size(); i += 2) {
      result.top_k_pairs.emplace_back(
          static_cast<graph::Vertex>(packed[i]),
          tau == 0.0 ? 0.0 : static_cast<double>(packed[i + 1]) / tau);
    }
  }
  if (is_root) {
    const epoch::SparseFrame& aggregate = driver.aggregate;
    scores_from_frame(aggregate, result.scores);
    result.samples = aggregate.tau();
    result.comm_bytes = driver.comm_bytes;
    result.comm_volume = driver.comm_volume;
    result.omega = context.omega;
    result.vertex_diameter = warm->vertex_diameter;
    result.phases = phases;
  }
  result.total_seconds = total_timer.elapsed_s();
  return result;
}

BcResult kadabra_sequential(const graph::Graph& graph,
                            const KadabraParams& params) {
  KadabraOptions options;
  options.params = params;
  options.engine.threads_per_rank = 1;
  // Sequentially, a stop check costs O(|V|) against O(n0) BFS samples, so
  // it can run much more often than in the parallel drivers; scale the
  // interval with the budget so small instances do not overshoot omega.
  options.omega_fraction = 20;
  options.min_epoch_length = 100;
  return kadabra_run(graph, options, nullptr);
}

BcResult kadabra_shm(const graph::Graph& graph,
                     const KadabraOptions& options) {
  return kadabra_run(graph, options, nullptr);
}

BcResult kadabra_mpi_rank(const graph::Graph& graph,
                          const KadabraOptions& options,
                          mpisim::Comm& world) {
  return kadabra_run(graph, options, &world);
}

BcResult kadabra_mpi(const graph::Graph& graph, const KadabraOptions& options,
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
  return session.kadabra(options);
}

}  // namespace distbc::bc
