// Tests for sampling a batch of streams on one shared traversal kernel:
// bc::PathSampler instances that share one graph::BidirectionalBfs.
//
// The contract under test: streams that share a kernel and interleave
// sample by sample produce exactly the frames that private kernels
// produce (connected and disconnected pairs alike), path draws stay
// uniform over the shortest-path set when the workspace was left behind
// by another pair's search, and the per-sample observer tap sees every
// recorded sample.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "bc/sampler.hpp"
#include "epoch/state_frame.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/bfs.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"

namespace distbc::bc {
namespace {

using graph::from_edges;
using graph::Graph;
using graph::Vertex;

void expect_frames_equal(const epoch::StateFrame& a,
                         const epoch::StateFrame& b, const char* label) {
  ASSERT_EQ(a.raw().size(), b.raw().size()) << label;
  for (std::size_t i = 0; i < a.raw().size(); ++i)
    ASSERT_EQ(a.raw()[i], b.raw()[i]) << label << " slot " << i;
}

/// `streams` samplers on streams Rng(seed).split(0..streams), all sharing
/// one kernel, sampled round-robin (one sample per stream per round) -
/// the interleaving that stresses kernel reuse hardest.
epoch::StateFrame sample_shared_round_robin(const Graph& graph,
                                            std::uint64_t seed, int streams,
                                            int per_stream) {
  const auto kernel =
      std::make_shared<graph::BidirectionalBfs>(graph.num_vertices());
  std::vector<PathSampler> samplers;
  for (int v = 0; v < streams; ++v)
    samplers.emplace_back(graph, Rng(seed).split(static_cast<std::uint64_t>(v)),
                          kernel);
  epoch::StateFrame frame(graph.num_vertices());
  for (int i = 0; i < per_stream; ++i)
    for (PathSampler& sampler : samplers) sampler.sample(frame);
  return frame;
}

/// The same streams, each with a private kernel, sampled stream after
/// stream.
epoch::StateFrame sample_private_in_order(const Graph& graph,
                                          std::uint64_t seed, int streams,
                                          int per_stream) {
  epoch::StateFrame frame(graph.num_vertices());
  for (int v = 0; v < streams; ++v) {
    PathSampler sampler(graph, Rng(seed).split(static_cast<std::uint64_t>(v)));
    for (int i = 0; i < per_stream; ++i) sampler.sample(frame);
  }
  return frame;
}

TEST(PathSampler, SharedKernelPreservesEveryStreamSequence) {
  // Four streams share one kernel and interleave sample by sample; the
  // merged frame must be bitwise identical to four private-kernel
  // samplers on the same streams.
  const Graph graph =
      graph::largest_component(gen::erdos_renyi(600, 1500, 21));
  const epoch::StateFrame shared =
      sample_shared_round_robin(graph, 5, /*streams=*/4, /*per_stream=*/300);
  const epoch::StateFrame reference =
      sample_private_in_order(graph, 5, /*streams=*/4, /*per_stream=*/300);
  EXPECT_EQ(shared.tau(), 1200u);
  expect_frames_equal(reference, shared, "shared vs private kernels");
}

TEST(PathSampler, SharedKernelHandlesDisconnectedPairs) {
  // Two separate chains: roughly half the uniform pairs cross components
  // and must record_empty, the rest record real internal vertices. The
  // disconnected branch must leave the shared kernel reusable by the next
  // stream's sample.
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex i = 0; i + 1 < 10; ++i) {
    edges.push_back({i, i + 1});
    edges.push_back({10 + i, 10 + i + 1});
  }
  const Graph graph = from_edges(20, edges);
  const epoch::StateFrame shared =
      sample_shared_round_robin(graph, 11, /*streams=*/3, /*per_stream=*/200);
  const epoch::StateFrame reference =
      sample_private_in_order(graph, 11, /*streams=*/3, /*per_stream=*/200);
  EXPECT_EQ(shared.tau(), 600u);
  // Both connected (counts recorded) and disconnected (tau-only) samples
  // must have occurred for the comparison to mean anything.
  EXPECT_GT(shared.count_sum(), 0u);
  EXPECT_LT(shared.count_sum(), 600u * 8u);
  expect_frames_equal(reference, shared, "disconnected, shared kernel");
}

TEST(PathSampler, PathsStayUniformAcrossKernelReuse) {
  // Ladder with two independent 2-choice stages: 4 equally likely paths
  // 0 -> {1|2} -> 3 -> {4|5} -> 6. Between draws the kernel runs another
  // pair, so every draw starts from a workspace the previous search left
  // behind. Chi-square over the 4 path bins, df = 3: reject above 16.27
  // (p = 0.001).
  const Graph graph = from_edges(
      7, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}});
  graph::BidirectionalBfs kernel(graph.num_vertices());
  Rng rng(123);
  std::map<std::vector<Vertex>, int> histogram;
  constexpr int kDraws = 40000;
  std::vector<Vertex> path;
  for (int i = 0; i < kDraws; ++i) {
    const auto result = kernel.run(graph, 0, 6);
    ASSERT_TRUE(result.connected);
    ASSERT_EQ(result.distance, 4u);
    ASSERT_DOUBLE_EQ(result.num_paths, 4.0);
    path.clear();
    kernel.sample_path(graph, rng, path);
    ++histogram[path];
    (void)kernel.run(graph, static_cast<Vertex>(1 + i % 5), 6);
  }
  ASSERT_EQ(histogram.size(), 4u);
  const double expected = kDraws / 4.0;
  double chi_square = 0.0;
  for (const auto& [p, count] : histogram) {
    const double delta = count - expected;
    chi_square += delta * delta / expected;
  }
  EXPECT_LT(chi_square, 16.27);
}

/// Observer that checks every tapped sample against BFS distances and
/// tallies what it saw.
struct CheckingObserver final : SampleObserver {
  explicit CheckingObserver(const Graph& graph) : graph(&graph) {}
  void on_sample(Vertex s, Vertex t, bool connected,
                 std::span<const Vertex> path) override {
    ++samples;
    const std::vector<std::uint32_t> dist = graph::bfs_distances(*graph, s);
    EXPECT_EQ(connected, dist[t] != graph::kUnreachable);
    if (!connected) {
      EXPECT_TRUE(path.empty());
      ++disconnected;
      return;
    }
    // The interior vertices plus both endpoints form a walk of length
    // d(s, t): a shortest path.
    EXPECT_EQ(path.size() + 1, dist[t]);
    Vertex previous = s;
    for (const Vertex v : path) {
      EXPECT_TRUE(graph->has_edge(previous, v));
      previous = v;
    }
    EXPECT_TRUE(graph->has_edge(previous, t));
    interior += path.size();
  }
  const Graph* graph;
  std::uint64_t samples = 0;
  std::uint64_t disconnected = 0;
  std::uint64_t interior = 0;
};

TEST(PathSampler, ObserverSeesEveryRecordedSample) {
  // One ER component plus a detached edge, so both branches are tapped.
  std::vector<std::pair<Vertex, Vertex>> edges;
  const Graph core = graph::largest_component(gen::erdos_renyi(80, 200, 31));
  for (Vertex u = 0; u < core.num_vertices(); ++u)
    for (const Vertex v : core.neighbors(u))
      if (u < v) edges.push_back({u, v});
  const Vertex n = core.num_vertices() + 2;
  edges.push_back({n - 2, n - 1});
  const Graph graph = from_edges(n, edges);

  CheckingObserver observer(graph);
  PathSampler sampler(graph, Rng(17));
  sampler.set_observer(&observer);
  epoch::StateFrame frame(n);
  for (int i = 0; i < 3000; ++i) sampler.sample(frame);
  EXPECT_EQ(observer.samples, frame.tau());
  EXPECT_EQ(observer.interior, frame.count_sum());
  EXPECT_GT(observer.disconnected, 0u);
  EXPECT_LT(observer.disconnected, observer.samples);

  // Clearing the observer stops the tap.
  sampler.set_observer(nullptr);
  sampler.sample(frame);
  EXPECT_EQ(observer.samples, frame.tau() - 1);
}

}  // namespace
}  // namespace distbc::bc
