// Integration tests: every betweenness algorithm in the library against the
// exact Brandes oracle, plus cross-variant consistency and bookkeeping.
#include <gtest/gtest.h>

#include "bc/brandes.hpp"
#include "bc/kadabra.hpp"
#include "bc/rk.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/road.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace distbc::bc {
namespace {

using graph::Graph;

Graph social_graph() {
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8.0;
  return graph::largest_component(gen::rmat(params, 1001));
}

Graph road_graph() {
  gen::RoadParams params;
  params.width = 40;
  params.height = 16;
  return gen::road(params, 1002);
}

KadabraParams loose_params() {
  KadabraParams params;
  params.epsilon = 0.1;
  params.delta = 0.1;
  params.seed = 7;
  return params;
}

TEST(KadabraSequential, WithinEpsilonOfExact) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  const BcResult approx = kadabra_sequential(graph, loose_params());
  ASSERT_EQ(approx.scores.size(), exact.scores.size());
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
  EXPECT_GT(approx.samples, 0u);
  EXPECT_GT(approx.epochs, 0u);
  EXPECT_GT(approx.omega, 0u);
  EXPECT_LE(approx.samples, approx.omega + 2000);  // capped by budget
}

TEST(KadabraSequential, TighterEpsilonTakesMoreSamples) {
  const Graph graph = social_graph();
  KadabraParams loose = loose_params();
  KadabraParams tight = loose_params();
  tight.epsilon = 0.03;
  const BcResult a = kadabra_sequential(graph, loose);
  const BcResult b = kadabra_sequential(graph, tight);
  EXPECT_GT(b.samples, a.samples);
}

TEST(KadabraSequential, PhaseTimingsPopulated) {
  const Graph graph = road_graph();
  const BcResult result = kadabra_sequential(graph, loose_params());
  EXPECT_GT(result.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kCalibration), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kSampling), 0.0);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GT(result.adaptive_seconds, 0.0);
}

TEST(KadabraShm, WithinEpsilonOfExact) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.threads_per_rank = 4;
  const BcResult approx = kadabra_shm(graph, options);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
  EXPECT_GT(approx.samples, 0u);
  EXPECT_GT(approx.epochs, 0u);
}

TEST(KadabraShm, SingleThreadWorks) {
  const Graph graph = road_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.threads_per_rank = 1;
  const BcResult approx = kadabra_shm(graph, options);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraShm, ManyThreadsStillSound) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.threads_per_rank = 12;
  const BcResult approx = kadabra_shm(graph, options);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraMpi, WithinEpsilonOfExact) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.threads_per_rank = 2;
  const BcResult approx = kadabra_mpi(graph, options, /*num_ranks=*/4);
  ASSERT_EQ(approx.scores.size(), exact.scores.size());
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
  EXPECT_GT(approx.samples, 0u);
  EXPECT_GT(approx.epochs, 0u);
  EXPECT_GT(approx.comm_bytes, 0u);
  EXPECT_GE(approx.samples_attempted, approx.samples);
}

TEST(KadabraMpi, SingleRankSingleThread) {
  const Graph graph = road_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  const BcResult approx = kadabra_mpi(graph, options, 1);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraMpi, IreduceStrategy) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.aggregation = Aggregation::kIreduce;
  const BcResult approx = kadabra_mpi(graph, options, 3);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraMpi, BlockingStrategy) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  // Free-running, and the paper's §III-B lockstep baseline: deterministic
  // (exact per-stream shares, no overlap samples, threads wait at every
  // transition) with blocking collectives on every leg.
  for (const bool deterministic : {false, true}) {
    KadabraOptions options;
    options.params = loose_params();
    options.engine.aggregation = Aggregation::kBlocking;
    options.engine.deterministic = deterministic;
    options.engine.threads_per_rank = deterministic ? 2 : 1;
    const BcResult approx = kadabra_mpi(graph, options, 3);
    EXPECT_LE(approx.max_abs_difference(exact), 0.1)
        << "deterministic=" << deterministic;
    EXPECT_GT(approx.epochs, 0u);
  }
}

TEST(KadabraMpi, HierarchicalAggregation) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  options.engine.hierarchical = true;
  // 4 ranks on 2 nodes: window pre-reduce + leader reduction.
  const BcResult approx =
      kadabra_mpi(graph, options, /*num_ranks=*/4, /*ranks_per_node=*/2);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraMpi, NetworkModelDoesNotChangeSoundness) {
  const Graph graph = road_graph();
  const BcResult exact = brandes(graph);
  KadabraOptions options;
  options.params = loose_params();
  mpisim::NetworkModel slow;
  slow.remote_latency_s = 1e-3;
  const BcResult approx = kadabra_mpi(graph, options, 4, 1, slow);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
}

TEST(KadabraMpi, PhaseBreakdownPopulated) {
  const Graph graph = social_graph();
  KadabraOptions options;
  options.params = loose_params();
  options.engine.threads_per_rank = 2;
  const BcResult result = kadabra_mpi(graph, options, 4);
  EXPECT_GT(result.phases.seconds(Phase::kDiameter), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kCalibration), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kSampling), 0.0);
  EXPECT_GE(result.phases.seconds(Phase::kBarrier), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kReduction), 0.0);
  EXPECT_GT(result.phases.seconds(Phase::kStopCheck), 0.0);
}

TEST(Rk, WithinEpsilonOfExact) {
  const Graph graph = social_graph();
  const BcResult exact = brandes(graph);
  RkParams params;
  params.epsilon = 0.1;
  params.delta = 0.1;
  params.seed = 5;
  const BcResult approx = rk(graph, params, /*num_threads=*/4);
  EXPECT_LE(approx.max_abs_difference(exact), 0.1);
  EXPECT_EQ(approx.samples, approx.omega);  // RK always spends the budget
}

TEST(Rk, KadabraStopsEarlierThanRkBudget) {
  // The adaptive advantage materializes in the asymptotic regime (epsilon
  // small relative to the top betweenness scores): the static budget pays
  // the full diameter-dependent constant while the adaptive check fires as
  // soon as the actual estimates concentrate.
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(500, 1500, 1003));
  KadabraParams kparams = loose_params();
  kparams.epsilon = 0.03;
  const BcResult adaptive = kadabra_sequential(graph, kparams);
  RkParams rparams;
  rparams.epsilon = kparams.epsilon;
  rparams.delta = kparams.delta;
  const BcResult fixed = rk(graph, rparams, 1);
  EXPECT_LT(adaptive.samples, fixed.samples);
}

TEST(AllSamplingAlgorithms, AgreeOnTopVertex) {
  // A graph with one dominant cut vertex: every algorithm must find it.
  // Two dense blobs joined through vertex 0.
  std::vector<std::pair<graph::Vertex, graph::Vertex>> edges;
  for (graph::Vertex u = 1; u <= 10; ++u) {
    edges.emplace_back(0, u);
    for (graph::Vertex v = u + 1; v <= 10; ++v) edges.emplace_back(u, v);
  }
  for (graph::Vertex u = 11; u <= 20; ++u) {
    edges.emplace_back(0, u);
    for (graph::Vertex v = u + 1; v <= 20; ++v) edges.emplace_back(u, v);
  }
  const Graph graph = graph::from_edges(21, edges);

  const auto check_top = [&](const BcResult& result) {
    ASSERT_FALSE(result.scores.empty());
    EXPECT_EQ(result.top_k(1)[0], 0u);
  };
  check_top(brandes(graph));
  check_top(kadabra_sequential(graph, loose_params()));
  KadabraOptions shm;
  shm.params = loose_params();
  shm.engine.threads_per_rank = 3;
  check_top(kadabra_shm(graph, shm));
  KadabraOptions mpi;
  mpi.params = loose_params();
  check_top(kadabra_mpi(graph, mpi, 2));
  RkParams rkp;
  rkp.epsilon = 0.1;
  check_top(rk(graph, rkp, 2));
}

}  // namespace
}  // namespace distbc::bc
