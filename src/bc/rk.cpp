#include "bc/rk.hpp"

#include <cmath>
#include <thread>
#include <vector>

#include "bc/sampler.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "support/timer.hpp"

namespace distbc::bc {

std::uint64_t rk_budget(std::uint32_t vertex_diameter, double epsilon,
                        double delta) {
  // Like KADABRA's omega but with ln(1/delta) - RK needs no union bound
  // over the two-sided adaptive checks.
  constexpr double kUniversalConstant = 0.5;
  const auto log2_vd =
      static_cast<double>(graph::omega_bucket(vertex_diameter));
  return static_cast<std::uint64_t>(
      std::ceil(kUniversalConstant / (epsilon * epsilon) *
                (log2_vd + 1.0 + std::log(1.0 / delta))));
}

BcResult rk(const graph::Graph& graph, const RkParams& params,
            int num_threads) {
  DISTBC_ASSERT(num_threads >= 1);
  DISTBC_ASSERT_MSG(graph::is_connected(graph),
                    "rk expects the largest connected component");
  WallTimer timer;
  BcResult result;
  const graph::Vertex n = graph.num_vertices();
  result.scores.assign(n, 0.0);
  if (n < 2) return result;

  PhaseTimer phases;
  const graph::VertexDiameterBound bound = phases.timed(Phase::kDiameter, [&] {
    return graph::vertex_diameter(graph, params.exact_diameter);
  });
  result.vertex_diameter = bound.value;
  result.diameter_bfs = bound.num_bfs;

  const std::uint64_t budget =
      rk_budget(bound.value, params.epsilon, params.delta);
  result.omega = budget;

  WallTimer sampling_timer;
  std::vector<epoch::SparseFrame> frames(num_threads,
                                         epoch::SparseFrame(n));
  auto worker = [&](int t) {
    PathSampler sampler(graph, Rng(params.seed).split(t));
    const std::uint64_t share =
        budget / num_threads + (t < static_cast<int>(budget % num_threads));
    for (std::uint64_t i = 0; i < share; ++i) sampler.sample(frames[t]);
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  epoch::SparseFrame total(n);
  for (const auto& frame : frames) total.merge(frame);
  DISTBC_ASSERT(total.tau() == budget);

  scores_from_frame(total, result.scores);
  result.samples = total.tau();
  result.epochs = 1;
  phases.add(Phase::kSampling, sampling_timer.elapsed_s());
  result.adaptive_seconds = sampling_timer.elapsed_s();
  result.phases = phases;
  result.total_seconds = timer.elapsed_s();
  return result;
}

}  // namespace distbc::bc
