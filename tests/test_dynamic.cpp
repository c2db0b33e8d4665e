// Tests for src/dynamic/: EdgeBatch validation must reject every batch
// that could corrupt the CSR or the ledger accounting, MutableGraph must
// serve small batches in place and rebuild on slot overflow (and revert
// exactly), IncrementalBc must keep clean samples across churn, replay
// bitwise-deterministically, recalibrate only when the vertex-diameter
// bound's omega bucket grows, and stay within epsilon of exact Brandes
// under hub churn; SampleLedger's distance test must mark dirty exactly
// the pairs whose shortest-path set a batch changed (checked against
// brute-force all-pairs BFS), every live record must stay a shortest path
// across stacked batches, and the Session/pool/dispatcher apply paths
// must reject typed and stay bitwise identical across pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/config.hpp"
#include "api/session.hpp"
#include "bc/brandes.hpp"
#include "dynamic/dynamic_state.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/incremental_bc.hpp"
#include "dynamic/mutable_graph.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/road.hpp"
#include "graph/bfs.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "graph/stats.hpp"
#include "service/dispatcher.hpp"
#include "service/session_pool.hpp"
#include "support/random.hpp"

namespace distbc {
namespace {

graph::Graph churn_graph(std::uint64_t seed = 777) {
  return graph::largest_component(gen::erdos_renyi(120, 360, seed));
}

bc::KadabraParams churn_params(double epsilon = 0.1) {
  bc::KadabraParams params;
  params.epsilon = epsilon;
  params.delta = 0.1;
  params.seed = 0x5eed;
  params.exact_diameter = true;
  return params;
}

/// First missing edge (u, v) with u < v and u >= `from`.
dynamic::Edge missing_edge(const graph::Graph& graph, graph::Vertex from = 0) {
  for (graph::Vertex u = from; u < graph.num_vertices(); ++u)
    for (graph::Vertex v = u + 1; v < graph.num_vertices(); ++v)
      if (!graph.has_edge(u, v)) return {u, v};
  ADD_FAILURE() << "graph is complete";
  return {0, 0};
}

/// First present edge (u, v) with u < v and u >= `from`.
dynamic::Edge present_edge(const graph::Graph& graph, graph::Vertex from = 0) {
  for (graph::Vertex u = from; u < graph.num_vertices(); ++u)
    for (const graph::Vertex v : graph.neighbors(u))
      if (v > u) return {u, v};
  ADD_FAILURE() << "graph is empty";
  return {0, 0};
}

/// A batch of `count` random absent edges (deterministic in `rng`), none
/// already queued in `taken`.
dynamic::EdgeBatch random_insert_batch(const graph::Graph& graph, int count,
                                       Rng& rng,
                                       std::vector<dynamic::Edge>* inserted) {
  dynamic::EdgeBatch batch;
  int added = 0;
  while (added < count) {
    auto [a, b] = rng.next_distinct_pair(graph.num_vertices());
    const dynamic::Edge edge{
        static_cast<graph::Vertex>(std::min(a, b)),
        static_cast<graph::Vertex>(std::max(a, b))};
    if (graph.has_edge(edge.u, edge.v)) continue;
    bool taken = false;
    for (const dynamic::Edge& seen : *inserted)
      taken |= seen == edge;
    if (taken) continue;
    batch.insert(edge.u, edge.v);
    inserted->push_back(edge);
    ++added;
  }
  return batch;
}

// --- EdgeBatch validation ----------------------------------------------------

TEST(EdgeBatch, ValidationRejectsEveryMalformedBatch) {
  const graph::Graph graph = churn_graph();
  const dynamic::Edge absent = missing_edge(graph);
  const dynamic::Edge existing = present_edge(graph);

  {
    dynamic::EdgeBatch batch;  // empty batches validate (apply rejects them)
    EXPECT_TRUE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;
    batch.insert(3, 3);  // self-loop
    EXPECT_FALSE(batch.validate(graph).ok);
    EXPECT_FALSE(batch.validated());
  }
  {
    dynamic::EdgeBatch batch;
    batch.insert(0, graph.num_vertices());  // endpoint out of range
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // duplicate (orientation-insensitive)
    batch.insert(absent.u, absent.v);
    batch.insert(absent.v, absent.u);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // same edge inserted AND deleted
    batch.insert(absent.u, absent.v);
    batch.remove(absent.u, absent.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // inserting an edge the graph already has
    batch.insert(existing.u, existing.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // deleting an edge the graph lacks
    batch.remove(absent.u, absent.v);
    EXPECT_FALSE(batch.validate(graph).ok);
  }
  {
    dynamic::EdgeBatch batch;  // a well-formed batch seals...
    batch.insert(absent.v, absent.u);  // free orientation
    batch.remove(existing.u, existing.v);
    ASSERT_TRUE(batch.validate(graph).ok);
    EXPECT_TRUE(batch.validated());
    EXPECT_EQ(batch.inserts().front(), absent);  // normalized to u < v
    batch.insert(5, 7);  // ...and any later edit un-seals it
    EXPECT_FALSE(batch.validated());
  }
}

// --- MutableGraph -------------------------------------------------------------

TEST(MutableGraph, ServesInPlaceRebuildOnOverflowAndRevertsExactly) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const std::uint64_t fp0 = graph::fingerprint(*initial);
  dynamic::MutableGraph mutable_graph(initial);
  EXPECT_EQ(mutable_graph.version(), 0u);

  // One insert + one delete fit every vertex's slack slots: in place.
  const dynamic::Edge added = missing_edge(*initial);
  const dynamic::Edge dropped = present_edge(*initial);
  dynamic::EdgeBatch small;
  small.insert(added.u, added.v);
  small.remove(dropped.u, dropped.v);
  ASSERT_TRUE(small.validate(*initial).ok);
  EXPECT_TRUE(mutable_graph.apply(small));
  EXPECT_EQ(mutable_graph.stats().in_place, 1u);
  EXPECT_EQ(mutable_graph.version(), 1u);
  EXPECT_NE(mutable_graph.fingerprint(), fp0);
  EXPECT_TRUE(mutable_graph.snapshot()->has_edge(added.u, added.v));
  EXPECT_FALSE(mutable_graph.snapshot()->has_edge(dropped.u, dropped.v));
  EXPECT_EQ(mutable_graph.snapshot()->num_edges(), initial->num_edges());

  // revert() restores the exact edge set - the content fingerprint is the
  // original one again.
  mutable_graph.revert(small);
  EXPECT_EQ(mutable_graph.fingerprint(), fp0);
  EXPECT_FALSE(mutable_graph.snapshot()->has_edge(added.u, added.v));
  EXPECT_TRUE(mutable_graph.snapshot()->has_edge(dropped.u, dropped.v));

  // Concentrating many inserts on one vertex overflows its slots: the
  // apply takes the rebuild path and every edge still lands.
  const graph::Vertex hub = 0;
  dynamic::EdgeBatch heavy;
  int queued = 0;
  for (graph::Vertex v = 1; v < initial->num_vertices() && queued < 24; ++v) {
    if (mutable_graph.snapshot()->has_edge(hub, v)) continue;
    heavy.insert(hub, v);
    ++queued;
  }
  ASSERT_EQ(queued, 24);
  ASSERT_TRUE(heavy.validate(*mutable_graph.snapshot()).ok);
  EXPECT_FALSE(mutable_graph.apply(heavy));
  EXPECT_EQ(mutable_graph.stats().rebuilds, 1u);
  for (const dynamic::Edge& edge : heavy.inserts())
    EXPECT_TRUE(mutable_graph.snapshot()->has_edge(edge.u, edge.v));
  EXPECT_EQ(mutable_graph.snapshot()->num_edges(),
            initial->num_edges() + 24);
}

// --- IncrementalBc ------------------------------------------------------------

TEST(IncrementalBc, CleanSamplesSurviveChurn) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::IncrementalBc engine(churn_params());
  engine.run(initial);
  ASSERT_TRUE(engine.ran());
  const std::uint64_t samples0 = engine.samples();
  ASSERT_GT(samples0, 0u);
  EXPECT_EQ(engine.ledger().size(), samples0);

  dynamic::MutableGraph mutable_graph(initial);
  dynamic::EdgeBatch batch;
  const dynamic::Edge e1 = missing_edge(*initial, 10);
  const dynamic::Edge e2 = missing_edge(*initial, 40);
  batch.insert(e1.u, e1.v);
  batch.insert(e2.u, e2.v);
  ASSERT_TRUE(batch.validate(*initial).ok);
  mutable_graph.apply(batch);

  const auto stats =
      engine.refresh(mutable_graph.snapshot(), batch, /*diameter_bound=*/0);
  // The whole point of the ledger: most samples never scanned the touched
  // region and survive the batch untouched.
  EXPECT_GT(stats.retained, 0u);
  EXPECT_LT(stats.dirty, samples0);
  EXPECT_EQ(stats.retained + stats.dirty, samples0);
  EXPECT_EQ(stats.resampled, stats.dirty);
  EXPECT_FALSE(stats.recalibrated);
  // Slot replacement keeps the estimator an average over exactly
  // ledger-many samples; only the re-run stop rule can grow it.
  EXPECT_EQ(engine.samples(), samples0 + stats.topup);
  EXPECT_EQ(engine.ledger().size(), engine.samples());
}

TEST(IncrementalBc, RunPlusRefreshSequencesReplayBitwise) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  const dynamic::Edge added = missing_edge(*initial, 5);
  const dynamic::Edge dropped = present_edge(*initial, 20);

  const auto replay = [&] {
    dynamic::MutableGraph mutable_graph(initial);
    dynamic::IncrementalBc engine(churn_params());
    engine.run(initial);
    dynamic::EdgeBatch first;
    first.insert(added.u, added.v);
    EXPECT_TRUE(first.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(first);
    engine.refresh(mutable_graph.snapshot(), first, 0);
    dynamic::EdgeBatch second;
    second.remove(added.u, added.v);
    second.remove(dropped.u, dropped.v);
    EXPECT_TRUE(second.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(second);
    EXPECT_TRUE(graph::is_connected(*mutable_graph.snapshot()));
    engine.refresh(
        mutable_graph.snapshot(), second,
        graph::vertex_diameter(*mutable_graph.snapshot(), /*ifub=*/true).value);
    return std::tuple{engine.scores(), engine.samples(), engine.next_stream(),
                      engine.epochs()};
  };

  const auto [scores_a, samples_a, stream_a, epochs_a] = replay();
  const auto [scores_b, samples_b, stream_b, epochs_b] = replay();
  EXPECT_EQ(samples_a, samples_b);
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_EQ(epochs_a, epochs_b);
  ASSERT_EQ(scores_a.size(), scores_b.size());
  for (std::size_t v = 0; v < scores_a.size(); ++v)
    EXPECT_EQ(scores_a[v], scores_b[v]) << "vertex " << v;
}

TEST(IncrementalBc, RecalibratesOnlyWhenTheBoundIsViolated) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::IncrementalBc engine(churn_params());
  engine.run(initial);
  const std::uint32_t vd0 = engine.vertex_diameter();
  const std::uint64_t omega0 = engine.context().omega;

  dynamic::MutableGraph mutable_graph(initial);
  const auto apply_one_insert = [&](graph::Vertex from) {
    dynamic::EdgeBatch batch;
    const dynamic::Edge edge = missing_edge(*mutable_graph.snapshot(), from);
    batch.insert(edge.u, edge.v);
    EXPECT_TRUE(batch.validate(*mutable_graph.snapshot()).ok);
    mutable_graph.apply(batch);
    return batch;
  };

  // Bound 0: the caller asserts the cached bound still holds (insert-only).
  auto stats = engine.refresh(mutable_graph.snapshot(), apply_one_insert(3), 0);
  EXPECT_FALSE(stats.recalibrated);
  EXPECT_EQ(engine.vertex_diameter(), vd0);
  EXPECT_EQ(engine.context().omega, omega0);

  // A recomputed bound at or below the cached one keeps omega too.
  stats = engine.refresh(mutable_graph.snapshot(), apply_one_insert(17), vd0);
  EXPECT_FALSE(stats.recalibrated);
  EXPECT_EQ(engine.context().omega, omega0);

  // Only a VIOLATED bound re-derives omega and the stopping radii.
  stats =
      engine.refresh(mutable_graph.snapshot(), apply_one_insert(31), vd0 + 6);
  EXPECT_TRUE(stats.recalibrated);
  EXPECT_EQ(engine.vertex_diameter(), vd0 + 6);
  EXPECT_GT(engine.context().omega, omega0);
  // The regrown omega re-ran the stop rule on the merged aggregate.
  EXPECT_EQ(engine.samples(), engine.ledger().size());
}

// --- SampleLedger: the exact dirty rule --------------------------------------

/// Brute-force all-pairs BFS distances and shortest-path counts.
struct AllPairs {
  explicit AllPairs(const graph::Graph& graph)
      : n(graph.num_vertices()),
        dist(std::size_t{n} * n, graph::kUnreachable),
        sigma(std::size_t{n} * n, 0.0) {
    std::vector<graph::Vertex> queue;
    for (graph::Vertex s = 0; s < n; ++s) {
      std::uint32_t* d = &dist[std::size_t{s} * n];
      double* paths = &sigma[std::size_t{s} * n];
      d[s] = 0;
      paths[s] = 1.0;
      queue.assign(1, s);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const graph::Vertex u = queue[head];
        for (const graph::Vertex w : graph.neighbors(u)) {
          if (d[w] == graph::kUnreachable) {
            d[w] = d[u] + 1;
            queue.push_back(w);
          }
          if (d[w] == d[u] + 1) paths[w] += paths[u];
        }
      }
    }
  }

  [[nodiscard]] std::uint32_t d(graph::Vertex a, graph::Vertex b) const {
    return dist[std::size_t{a} * n + b];
  }
  [[nodiscard]] double paths(graph::Vertex a, graph::Vertex b) const {
    return sigma[std::size_t{a} * n + b];
  }
  /// Whether `edge` (present in this graph) lies on a shortest s-t path.
  [[nodiscard]] bool on_shortest_path(const dynamic::Edge& edge,
                                      graph::Vertex s, graph::Vertex t) const {
    const std::uint64_t st = d(s, t);
    return std::uint64_t{d(s, edge.u)} + 1 + d(edge.v, t) == st ||
           std::uint64_t{d(s, edge.v)} + 1 + d(edge.u, t) == st;
  }

  graph::Vertex n;
  std::vector<std::uint32_t> dist;
  std::vector<double> sigma;
};

/// A random present edge of `graph` (deterministic in `rng`).
dynamic::Edge random_present_edge(const graph::Graph& graph, Rng& rng) {
  while (true) {
    const auto u = static_cast<graph::Vertex>(
        rng.next_bounded(graph.num_vertices()));
    const std::span<const graph::Vertex> nbrs = graph.neighbors(u);
    if (nbrs.empty()) continue;
    const graph::Vertex v = nbrs[rng.next_bounded(nbrs.size())];
    return {std::min(u, v), std::max(u, v)};
  }
}

/// Applies a random connected-preserving mixed batch to `graph`: 1-3
/// random inserts, one deleted original edge, and (when there is one)
/// one deleted earlier insert. `inserted` tracks the present inserts.
dynamic::EdgeBatch apply_random_mixed_batch(
    dynamic::MutableGraph& graph, Rng& rng,
    std::vector<dynamic::Edge>& inserted) {
  while (true) {
    const graph::Graph& current = *graph.snapshot();
    std::vector<dynamic::Edge> scratch = inserted;
    const auto count = static_cast<int>(1 + rng.next_bounded(3));
    dynamic::EdgeBatch batch =
        random_insert_batch(current, count, rng, &scratch);
    std::vector<dynamic::Edge> deleted;
    dynamic::Edge original = random_present_edge(current, rng);
    while (std::find(inserted.begin(), inserted.end(), original) !=
           inserted.end())
      original = random_present_edge(current, rng);
    deleted.push_back(original);
    if (!inserted.empty())
      deleted.push_back(inserted[rng.next_bounded(inserted.size())]);
    for (const dynamic::Edge& edge : deleted) batch.remove(edge.u, edge.v);
    EXPECT_TRUE(batch.validate(current).ok);
    graph.apply(batch);
    if (!graph::is_connected(*graph.snapshot())) {
      graph.revert(batch);
      continue;
    }
    for (const dynamic::Edge& edge : batch.deletes())
      std::erase(inserted, edge);
    inserted.insert(inserted.end(), batch.inserts().begin(),
                    batch.inserts().end());
    return batch;
  }
}

TEST(SampleLedger, ExactRuleMarksDirtyExactlyThePairsWhosePathsChanged) {
  gen::RoadParams road;
  road.width = 12;
  road.height = 6;
  road.keep = 0.85;
  const std::vector<graph::Graph> graphs = {
      graph::largest_component(gen::erdos_renyi(60, 150, 3)),
      gen::barabasi_albert(70, 2, 5), gen::road(road, 9)};
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    SCOPED_TRACE("graph " + std::to_string(gi));
    const auto initial = std::make_shared<const graph::Graph>(graphs[gi]);
    const graph::Vertex n = initial->num_vertices();
    ASSERT_TRUE(graph::is_connected(*initial));

    // One record per ordered pair, each a real drawn shortest path.
    Rng rng(100 + gi);
    graph::BidirectionalBfs bibfs(n);
    std::vector<graph::Vertex> path;
    const auto draw = [&](const graph::Graph& graph, graph::Vertex s,
                          graph::Vertex t) {
      path.clear();
      const bool connected = bibfs.run(graph, s, t).connected;
      if (connected) bibfs.sample_path(graph, rng, path);
      return connected;
    };
    dynamic::SampleLedger ledger;
    for (graph::Vertex s = 0; s < n; ++s) {
      for (graph::Vertex t = 0; t < n; ++t) {
        if (s == t) continue;
        const bool connected = draw(*initial, s, t);
        ledger.record(s, t, connected, path);
      }
    }

    dynamic::MutableGraph mutable_graph(initial);
    std::vector<dynamic::Edge> inserted;
    std::uint64_t total_dirty = 0;
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const std::shared_ptr<const graph::Graph> before_graph =
          mutable_graph.snapshot();
      const dynamic::EdgeBatch batch =
          apply_random_mixed_batch(mutable_graph, rng, inserted);
      const std::shared_ptr<const graph::Graph> after_graph =
          mutable_graph.snapshot();
      const AllPairs before(*before_graph);
      const AllPairs after(*after_graph);

      const std::optional<std::vector<std::uint32_t>> classified =
          ledger.classify(*before_graph, *after_graph, batch,
                          std::numeric_limits<double>::infinity());
      ASSERT_TRUE(classified.has_value());
      const std::vector<std::uint32_t>& dirty = *classified;
      std::vector<std::uint32_t> changed;
      for (std::uint32_t i = 0; i < ledger.size(); ++i) {
        const graph::Vertex s = ledger.source(i);
        const graph::Vertex t = ledger.target(i);
        ASSERT_EQ(ledger.distance(i), before.d(s, t));
        const bool path_set_changed =
            std::ranges::any_of(batch.deletes(),
                                [&](const dynamic::Edge& edge) {
                                  return before.on_shortest_path(edge, s, t);
                                }) ||
            std::ranges::any_of(batch.inserts(),
                                [&](const dynamic::Edge& edge) {
                                  return after.on_shortest_path(edge, s, t);
                                });
        if (path_set_changed) changed.push_back(i);
        if (before.d(s, t) != after.d(s, t) ||
            before.paths(s, t) != after.paths(s, t)) {
          EXPECT_TRUE(std::ranges::binary_search(dirty, i))
              << "pair " << s << "-" << t << " changed d or sigma";
        }
      }
      EXPECT_EQ(dirty, changed);
      total_dirty += dirty.size();

      // Redraw the dirty records on the new graph, as a refresh would.
      for (const std::uint32_t i : dirty) {
        const graph::Vertex s = ledger.source(i);
        const graph::Vertex t = ledger.target(i);
        const bool connected = draw(*after_graph, s, t);
        ledger.replace(i, connected, path);
      }
    }
    // Non-trivial: some pairs changed, most did not.
    EXPECT_GT(total_dirty, 0u);
    EXPECT_LT(total_dirty, 6 * ledger.size() / 2);
  }
}

TEST(IncrementalBc, LedgerRecordsStayShortestPathsAcrossStackedBatches) {
  gen::RoadParams road;
  road.width = 16;
  road.height = 8;
  road.keep = 0.9;
  const auto initial =
      std::make_shared<const graph::Graph>(gen::road(road, 21));
  dynamic::IncrementalBc engine(churn_params());
  engine.run(initial);
  dynamic::MutableGraph mutable_graph(initial);

  // A shortcut between two peripheral vertices pulls far regions of many
  // kept samples closer; a later batch deletes it again.
  const std::vector<std::uint32_t> from_zero =
      graph::bfs_distances(*initial, 0);
  const auto a = static_cast<graph::Vertex>(
      std::ranges::max_element(from_zero) - from_zero.begin());
  const std::vector<std::uint32_t> from_a = graph::bfs_distances(*initial, a);
  const auto b = static_cast<graph::Vertex>(
      std::ranges::max_element(from_a) - from_a.begin());
  ASSERT_GT(from_a[b], 4u);
  const dynamic::Edge shortcut{std::min(a, b), std::max(a, b)};

  Rng rng(31);
  std::vector<dynamic::Edge> inserted;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    dynamic::EdgeBatch batch;
    if (round == 0 || round == 5) {
      if (round == 0) {
        batch.insert(shortcut.u, shortcut.v);
      } else {
        batch.remove(shortcut.u, shortcut.v);
      }
      ASSERT_TRUE(batch.validate(*mutable_graph.snapshot()).ok);
      mutable_graph.apply(batch);
      ASSERT_TRUE(graph::is_connected(*mutable_graph.snapshot()));
    } else {
      // Random churn that never deletes the shortcut itself.
      while (true) {
        std::vector<dynamic::Edge> others = inserted;
        batch = apply_random_mixed_batch(mutable_graph, rng, others);
        if (std::ranges::find(batch.deletes(), shortcut) ==
            batch.deletes().end()) {
          inserted = std::move(others);
          break;
        }
        mutable_graph.revert(batch);
      }
    }
    const graph::Graph& current = *mutable_graph.snapshot();
    const std::uint32_t bound =
        batch.deletes().empty()
            ? 0
            : graph::vertex_diameter(current, /*ifub=*/true).value;
    const auto stats =
        engine.refresh(mutable_graph.snapshot(), batch, bound);
    EXPECT_FALSE(stats.full_redraw);
    if (round == 0 || round == 5) {
      EXPECT_GT(stats.dirty, 0u);
    }
    EXPECT_EQ(engine.ledger().size(), engine.samples());

    const AllPairs distances(current);
    const dynamic::SampleLedger& ledger = engine.ledger();
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      const graph::Vertex s = ledger.source(i);
      const graph::Vertex t = ledger.target(i);
      graph::Vertex previous = s;
      for (const graph::Vertex v : ledger.path(i)) {
        ASSERT_TRUE(current.has_edge(previous, v)) << "record " << i;
        previous = v;
      }
      ASSERT_TRUE(current.has_edge(previous, t)) << "record " << i;
      ASSERT_EQ(ledger.path(i).size() + 1, distances.d(s, t))
          << "record " << i;
      ASSERT_EQ(ledger.distance(i), distances.d(s, t)) << "record " << i;
    }
  }
}

TEST(IncrementalBc, LargeBatchesFallBackToAFullRedraw) {
  const auto initial = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(500, 1500, 17)));
  const bc::KadabraParams params = churn_params();
  dynamic::IncrementalBc engine(params);
  engine.run(initial);
  dynamic::MutableGraph mutable_graph(initial);
  Rng rng(5);
  std::vector<dynamic::Edge> inserted;

  // A small batch pays for its BFS runs...
  dynamic::EdgeBatch small = random_insert_batch(*initial, 1, rng, &inserted);
  ASSERT_TRUE(small.validate(*initial).ok);
  mutable_graph.apply(small);
  EXPECT_FALSE(engine.refresh(mutable_graph.snapshot(), small, 0).full_redraw);

  // ...one touching most vertices does not: every sample is redrawn.
  dynamic::EdgeBatch large = random_insert_batch(
      *mutable_graph.snapshot(), 300, rng, &inserted);
  ASSERT_TRUE(large.validate(*mutable_graph.snapshot()).ok);
  mutable_graph.apply(large);
  const std::size_t ledger_size = engine.ledger().size();
  const auto stats = engine.refresh(mutable_graph.snapshot(), large, 0);
  EXPECT_TRUE(stats.full_redraw);
  EXPECT_EQ(stats.dirty, ledger_size);
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(engine.ledger().size(), engine.samples());

  const std::vector<double> exact =
      bc::brandes(*mutable_graph.snapshot()).scores;
  const std::vector<double> scores = engine.scores();
  ASSERT_EQ(scores.size(), exact.size());
  for (std::size_t v = 0; v < exact.size(); ++v)
    EXPECT_LE(std::abs(scores[v] - exact[v]), params.epsilon) << "vertex " << v;
}

// --- DynamicState --------------------------------------------------------------

TEST(DynamicState, RejectsBadBatchesTransactionally) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial);
  const std::uint64_t fp0 = state.fingerprint();

  EXPECT_FALSE(state.apply(dynamic::EdgeBatch{}).status.ok);  // empty

  dynamic::EdgeBatch self_loop;
  self_loop.insert(4, 4);
  EXPECT_FALSE(state.apply(std::move(self_loop)).status.ok);
  EXPECT_EQ(state.fingerprint(), fp0);
  EXPECT_EQ(state.version(), 0u);

  // Deleting every edge of one vertex isolates it: the batch is valid in
  // isolation but disconnects the graph, so apply reverts and rejects.
  graph::Vertex loner = 0;
  for (graph::Vertex v = 0; v < initial->num_vertices(); ++v)
    if (initial->degree(v) < initial->degree(loner)) loner = v;
  dynamic::EdgeBatch isolate;
  for (const graph::Vertex v : initial->neighbors(loner))
    isolate.remove(loner, v);
  const dynamic::ApplyReport rejected = state.apply(std::move(isolate));
  EXPECT_FALSE(rejected.status.ok);
  EXPECT_NE(rejected.status.message.find("disconnect"), std::string::npos);
  EXPECT_EQ(state.fingerprint(), fp0);  // revert restored the content

  // A well-formed insert touches no cached bound and no calibration.
  const dynamic::Edge edge = missing_edge(*initial);
  dynamic::EdgeBatch good;
  good.insert(edge.u, edge.v);
  const dynamic::ApplyReport applied = state.apply(std::move(good));
  ASSERT_TRUE(applied.status.ok);
  EXPECT_EQ(applied.edges_inserted, 1u);
  EXPECT_EQ(applied.diameter_bound, 0u);
  EXPECT_EQ(applied.recalibrations, 0u);
  EXPECT_NE(applied.fingerprint, fp0);
  EXPECT_EQ(applied.engines_refreshed, 0u);  // no engine live yet
}

TEST(DynamicState, RefreshAccountingCoversEveryRetainedSample) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial);

  const auto first = state.query(churn_params());
  ASSERT_TRUE(first.status.ok);
  EXPECT_TRUE(first.first_run);
  ASSERT_GT(first.samples, 0u);
  EXPECT_EQ(state.engine_count(), 1u);

  const dynamic::Edge edge = missing_edge(*initial, 25);
  dynamic::EdgeBatch batch;
  batch.insert(edge.u, edge.v);
  const dynamic::ApplyReport report = state.apply(std::move(batch));
  ASSERT_TRUE(report.status.ok);
  EXPECT_EQ(report.engines_refreshed, 1u);
  EXPECT_EQ(report.samples_retained + report.samples_dirty, first.samples);
  EXPECT_EQ(report.samples_resampled, report.samples_dirty);
  EXPECT_GT(report.samples_retained, 0u);
  EXPECT_LT(report.dirty_fraction(), 1.0);

  const auto second = state.query(churn_params());
  ASSERT_TRUE(second.status.ok);
  EXPECT_FALSE(second.first_run);  // served from the refreshed engine
  EXPECT_EQ(second.samples, first.samples + report.samples_topup);
}

/// The bound policy before proofs, kept as the reference: one engine on a
/// MutableGraph, refreshed with a bound recomputed on every deletion batch.
struct RecomputingTwin {
  RecomputingTwin(const std::shared_ptr<const graph::Graph>& initial,
                  const bc::KadabraParams& params)
      : graph(initial), engine(params) {
    engine.run(initial);
  }

  dynamic::IncrementalBc::RefreshStats apply(dynamic::EdgeBatch batch) {
    EXPECT_TRUE(batch.validate(*graph.snapshot()).ok);
    graph.apply(batch);
    const std::uint32_t bound =
        batch.deletes().empty()
            ? 0
            : graph::vertex_diameter(*graph.snapshot(), /*ifub=*/true).value;
    return engine.refresh(graph.snapshot(), batch, bound);
  }

  dynamic::MutableGraph graph;
  dynamic::IncrementalBc engine;
};

/// Checks one report against the twin's refresh of the same batch and the
/// state's scores against the twin's, bitwise.
void expect_matches_twin(dynamic::DynamicState& state,
                         const dynamic::ApplyReport& report,
                         const dynamic::IncrementalBc::RefreshStats& stats,
                         const RecomputingTwin& twin) {
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.samples_dirty, stats.dirty);
  EXPECT_EQ(report.samples_resampled, stats.resampled);
  EXPECT_EQ(report.samples_topup, stats.topup);
  EXPECT_EQ(report.recalibrations, stats.recalibrated ? 1u : 0u);
  const auto view = state.query(churn_params());
  EXPECT_EQ(view.samples, twin.engine.samples());
  EXPECT_EQ(view.scores, twin.engine.scores());
}

TEST(DynamicState, CoveredDeletionsSkipTheRecomputeAndMatchTheTwin) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial);
  ASSERT_TRUE(state.query(churn_params()).first_run);  // proves the bound
  RecomputingTwin twin(initial, churn_params());

  // Each round inserts three edges and deletes the previous round's: every
  // deletion removes an edge added after the proof.
  Rng rng(99);
  std::vector<dynamic::Edge> inserted;
  std::vector<dynamic::Edge> previous;
  for (int round = 0; round < 6; ++round) {
    dynamic::EdgeBatch batch =
        random_insert_batch(*state.snapshot(), 3, rng, &inserted);
    const std::vector<dynamic::Edge> added(inserted.end() - 3, inserted.end());
    for (const dynamic::Edge& edge : previous) batch.remove(edge.u, edge.v);
    previous = added;
    const dynamic::ApplyReport report = state.apply(batch);
    EXPECT_EQ(report.diameter_bfs, 0u) << round;
    EXPECT_EQ(report.diameter_bound != 0, round > 0) << round;
    expect_matches_twin(state, report, twin.apply(batch), twin);
  }
  EXPECT_EQ(state.snapshot()->num_edges(), twin.graph.snapshot()->num_edges());
}

TEST(DynamicState, DeletingAProvenEdgeRecomputesAndReproves) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial);
  ASSERT_TRUE(state.query(churn_params()).first_run);
  RecomputingTwin twin(initial, churn_params());
  const auto apply_both = [&](const dynamic::EdgeBatch& batch) {
    const dynamic::ApplyReport report = state.apply(batch);
    expect_matches_twin(state, report, twin.apply(batch), twin);
    return report;
  };

  const dynamic::Edge added = missing_edge(*initial, 5);
  const dynamic::Edge dropped = present_edge(*initial, 20);
  dynamic::EdgeBatch insert;
  insert.insert(added.u, added.v);
  EXPECT_EQ(apply_both(insert).diameter_bfs, 0u);

  // `dropped` belongs to the proven snapshot: recompute, then re-prove on
  // the new snapshot, which contains `added`.
  dynamic::EdgeBatch proven;
  proven.remove(dropped.u, dropped.v);
  const dynamic::ApplyReport recomputed = apply_both(proven);
  EXPECT_GT(recomputed.diameter_bfs, 0u);
  EXPECT_GT(recomputed.diameter_bound, 0u);

  // `added` is now part of the proof's snapshot, so deleting it recomputes.
  dynamic::EdgeBatch again;
  again.remove(added.u, added.v);
  EXPECT_GT(apply_both(again).diameter_bfs, 0u);
  EXPECT_EQ(state.proven_bound(),
            graph::vertex_diameter(*state.snapshot(), /*ifub=*/true).value);
}

TEST(DynamicState, DisconnectingBatchOnAProvenEdgeIsStillRejected) {
  const auto initial = std::make_shared<const graph::Graph>(churn_graph());
  dynamic::DynamicState state(initial);
  ASSERT_TRUE(state.query(churn_params()).first_run);

  graph::Vertex loner = 0;
  for (graph::Vertex v = 0; v < initial->num_vertices(); ++v)
    if (initial->degree(v) < initial->degree(loner)) loner = v;
  const dynamic::Edge added =
      missing_edge(*initial, loner == 0 ? 1 : 0);  // avoids touching loner
  ASSERT_NE(added.u, loner);
  ASSERT_NE(added.v, loner);
  dynamic::EdgeBatch insert;
  insert.insert(added.u, added.v);
  ASSERT_TRUE(state.apply(insert).status.ok);
  const std::uint64_t fingerprint = state.fingerprint();

  // Deletes an edge added since the proof plus every proven edge of one
  // vertex: not covered, so the connectivity check runs and rejects it.
  dynamic::EdgeBatch isolate;
  isolate.remove(added.u, added.v);
  for (const graph::Vertex v : initial->neighbors(loner))
    isolate.remove(loner, v);
  const dynamic::ApplyReport rejected = state.apply(isolate);
  EXPECT_FALSE(rejected.status.ok);
  EXPECT_NE(rejected.status.message.find("disconnect"), std::string::npos);
  EXPECT_EQ(state.fingerprint(), fingerprint);

  // The rejection left the proof untouched: deleting `added` alone is
  // still covered.
  dynamic::EdgeBatch covered;
  covered.remove(added.u, added.v);
  const dynamic::ApplyReport report = state.apply(covered);
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.diameter_bfs, 0u);
  EXPECT_EQ(report.fingerprint, graph::fingerprint(*initial));
}

// --- Session / pool / dispatcher apply paths -----------------------------------

api::Config dynamic_config(int pool_size = 2) {
  api::Config config;
  config.seed = 4321;
  config.service_pool_size = pool_size;
  return config;
}

TEST(SessionApply, IncrementalQueriesSurviveChurn) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::Session session(graph, dynamic_config());
  ASSERT_TRUE(session.status().ok);

  api::BetweennessQuery query;
  query.epsilon = 0.1;
  query.incremental = true;
  query.top_k = 5;
  const api::Result cold = session.run(query);
  ASSERT_TRUE(cold.status.ok) << cold.status.message;
  EXPECT_EQ(cold.algorithm, "kadabra-incremental");
  EXPECT_FALSE(cold.calibration_reused);
  EXPECT_EQ(cold.scores.size(), graph->num_vertices());
  ASSERT_EQ(cold.top_k.size(), 5u);

  // Same query again: the engine (and its sample set) is warm.
  const api::Result warm = session.run(query);
  ASSERT_TRUE(warm.status.ok);
  EXPECT_TRUE(warm.calibration_reused);
  EXPECT_EQ(warm.scores, cold.scores);

  // Churn, then query the mutated graph through the same session.
  const dynamic::Edge edge = missing_edge(*graph, 12);
  dynamic::EdgeBatch batch;
  batch.insert(edge.u, edge.v);
  const dynamic::ApplyReport report = session.apply(std::move(batch));
  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_EQ(report.recalibrations, 0u);
  const api::Result after = session.run(query);
  ASSERT_TRUE(after.status.ok);
  EXPECT_TRUE(after.calibration_reused);
  EXPECT_EQ(after.scores.size(), graph->num_vertices());

  // A malformed batch rejects typed and leaves the session serving.
  dynamic::EdgeBatch bad;
  bad.insert(2, 2);
  EXPECT_FALSE(session.apply(std::move(bad)).status.ok);
  EXPECT_TRUE(session.run(query).status.ok);
}

TEST(SessionApply, HubChurnStaysWithinEpsilonOfBrandes) {
  // Each batch joins three of the eight highest-degree vertices to random
  // non-neighbours and deletes the previous batch's three edges: churn
  // where most shortest paths run. Redrawing a dirty sample on a fresh
  // stream (a new pair) left the kept samples uniform only among pairs the
  // batches missed, and the hub scores drifted 3-5 epsilon low; each slot
  // is now redrawn on its own stream (same pair, path on the new graph).
  const auto graph = std::make_shared<const graph::Graph>(
      gen::barabasi_albert(1500, 2, 11));
  const graph::Vertex n = graph->num_vertices();
  api::Config config;
  config.seed = 2468;
  api::Session session(graph, config);
  ASSERT_TRUE(session.status().ok);
  api::BetweennessQuery query;
  query.epsilon = 0.01;
  query.delta = 0.1;
  query.incremental = true;
  const api::Result first = session.run(query);
  ASSERT_TRUE(first.status.ok) << first.status.message;
  EXPECT_GT(first.diameter_bfs, 0u);  // phase 1 ran for this query

  std::vector<graph::Vertex> hubs(n);
  for (graph::Vertex v = 0; v < n; ++v) hubs[v] = v;
  std::partial_sort(hubs.begin(), hubs.begin() + 8, hubs.end(),
                    [&](graph::Vertex a, graph::Vertex b) {
                      return graph->degree(a) != graph->degree(b)
                                 ? graph->degree(a) > graph->degree(b)
                                 : a < b;
                    });
  Rng rng(13);
  std::vector<dynamic::Edge> previous;
  double dirty_fraction_sum = 0.0;
  for (int round = 0; round < 8; ++round) {
    const graph::Graph& current = session.graph();
    dynamic::EdgeBatch batch;
    std::vector<dynamic::Edge> added;
    while (added.size() < 3) {
      const graph::Vertex hub = hubs[rng.next_bounded(8)];
      const auto other = static_cast<graph::Vertex>(rng.next_bounded(n));
      const dynamic::Edge edge{std::min(hub, other), std::max(hub, other)};
      if (other == hub || current.has_edge(edge.u, edge.v) ||
          std::find(added.begin(), added.end(), edge) != added.end()) {
        continue;
      }
      batch.insert(edge.u, edge.v);
      added.push_back(edge);
    }
    for (const dynamic::Edge& edge : previous) batch.remove(edge.u, edge.v);
    const dynamic::ApplyReport report = session.apply(std::move(batch));
    ASSERT_TRUE(report.status.ok) << report.status.message;
    // Every deletion removes the previous round's inserts, made after the
    // first run proved the diameter bound: no batch recomputes it.
    EXPECT_EQ(report.diameter_bfs, 0u) << round;
    // Only samples whose shortest-path set the batch changed are redrawn:
    // 1.6-5.2% per round here.
    EXPECT_LT(report.dirty_fraction(), 0.1) << round;
    dirty_fraction_sum += report.dirty_fraction();
    previous = added;

    const api::Result result = session.run(query);
    ASSERT_TRUE(result.status.ok);
    EXPECT_EQ(result.diameter_bfs, 0u);  // served by the live engine
    const std::vector<double> exact = bc::brandes(session.graph()).scores;
    double max_error = 0.0;
    for (graph::Vertex v = 0; v < n; ++v)
      max_error = std::max(max_error, std::abs(result.scores[v] - exact[v]));
    EXPECT_LE(max_error, query.epsilon) << "round " << round;
  }
  EXPECT_LT(dirty_fraction_sum / 8, 0.05);
}

TEST(SessionApply, WarmStatesBelowTheProofsBucketReadTheNewGraphsBound) {
  // A 40-vertex path (vertex diameter 40, omega bucket 5); closing it into
  // a cycle drops the vertex diameter to 21 (bucket 4).
  constexpr graph::Vertex kPath = 40;
  graph::Builder builder(kPath);
  for (graph::Vertex v = 0; v + 1 < kPath; ++v) builder.add_edge(v, v + 1);
  const auto path = std::make_shared<const graph::Graph>(builder.finish());
  api::Session session(path, dynamic_config());
  ASSERT_TRUE(session.status().ok);
  api::BetweennessQuery incremental;
  incremental.epsilon = 0.1;
  incremental.incremental = true;
  ASSERT_TRUE(session.run(incremental).status.ok);  // proves on the path

  dynamic::EdgeBatch close;
  close.insert(0, kPath - 1);  // the chord that drops the bucket
  close.insert(10, 12);
  ASSERT_TRUE(session.apply(std::move(close)).status.ok);

  // A warm state calibrated on the cycle sits below the proof's bucket.
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  ASSERT_TRUE(session.run(query).status.ok);
  ASSERT_EQ(session.calibrations().size(), 1u);
  const std::uint32_t warm_bound = session.calibrations()[0]->vertex_diameter;
  ASSERT_LT(graph::omega_bucket(warm_bound), graph::omega_bucket(kPath));

  // Covered, and the graph stays a cycle: the warm state survives, as it
  // would after a recompute, and the incremental engine keeps its omega.
  dynamic::EdgeBatch shortcut;
  shortcut.remove(10, 12);
  const dynamic::ApplyReport kept = session.apply(std::move(shortcut));
  ASSERT_TRUE(kept.status.ok) << kept.status.message;
  EXPECT_EQ(kept.diameter_bfs, 0u);
  EXPECT_GE(graph::omega_bucket(kept.diameter_bound),
            graph::omega_bucket(kPath));
  EXPECT_EQ(kept.recalibrations, 0u);
  ASSERT_EQ(session.calibrations().size(), 1u);
  EXPECT_EQ(session.calibrations()[0]->graph_fingerprint, kept.fingerprint);
  EXPECT_EQ(graph::omega_bucket(session.calibrations()[0]->vertex_diameter),
            graph::omega_bucket(warm_bound));
  EXPECT_TRUE(session.run(query).calibration_reused);

  // Covered again, but the path is back: the warm state's omega is too
  // small now, so it is dropped, as a recompute would have dropped it.
  dynamic::EdgeBatch reopen;
  reopen.remove(0, kPath - 1);
  const dynamic::ApplyReport dropped = session.apply(std::move(reopen));
  ASSERT_TRUE(dropped.status.ok) << dropped.status.message;
  EXPECT_EQ(dropped.diameter_bfs, 0u);
  EXPECT_EQ(dropped.recalibrations, 0u);
  EXPECT_TRUE(session.calibrations().empty());
  EXPECT_FALSE(session.run(query).calibration_reused);
}

TEST(SessionPoolApply, PostApplyResponsesBitwiseIdenticalAcrossPoolSizes) {
  const auto graph = std::make_shared<const graph::Graph>(churn_graph());
  api::BetweennessQuery query;
  query.epsilon = 0.1;
  query.incremental = true;

  const dynamic::Edge edge = missing_edge(*graph, 8);

  std::vector<std::vector<double>> before;
  std::vector<std::vector<double>> after;
  std::vector<std::uint64_t> fingerprints;
  for (const int pool_size : {1, 3}) {
    service::SessionPool pool(graph, dynamic_config(pool_size));
    ASSERT_TRUE(pool.status().ok) << pool.status().message;

    service::Ticket cold = pool.submit(query, "tenant", "g");
    pool.drain();
    const service::Response& cold_response = cold.wait();
    ASSERT_TRUE(cold_response.status.ok) << cold_response.status.message;
    before.push_back(cold_response.result.scores);

    dynamic::EdgeBatch batch;
    batch.insert(edge.u, edge.v);
    const dynamic::ApplyReport report = pool.apply(std::move(batch));
    ASSERT_TRUE(report.status.ok) << report.status.message;
    EXPECT_EQ(pool.stats().applies, 1u);
    EXPECT_EQ(pool.graph_fingerprint(), report.fingerprint);
    EXPECT_TRUE(pool.graph_snapshot()->has_edge(edge.u, edge.v));
    fingerprints.push_back(report.fingerprint);

    service::Ticket hot = pool.submit(query, "tenant", "g");
    pool.drain();
    const service::Response& hot_response = hot.wait();
    ASSERT_TRUE(hot_response.status.ok) << hot_response.status.message;
    EXPECT_TRUE(hot_response.result.calibration_reused);
    after.push_back(hot_response.result.scores);
  }

  // The pool serves incremental queries from ONE shared engine: pre- and
  // post-apply score vectors are bitwise independent of the pool size.
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0], before[1]);
  EXPECT_EQ(after[0], after[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(DispatcherApply, DrainsTheShardAndRejectsMidApplySubmissionsTyped) {
  // Big enough that the fresh-engine query below runs for hundreds of
  // milliseconds - the window in which the apply quiesces the shard.
  const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::erdos_renyi(1500, 4500, 99)));
  service::Dispatcher dispatcher;
  ASSERT_TRUE(dispatcher.bind("g", graph, dynamic_config()).ok);

  // Unknown ids reject typed, exactly like query submission.
  dynamic::EdgeBatch stray;
  stray.insert(0, 1);
  EXPECT_FALSE(dispatcher.apply("nope", std::move(stray)).status.ok);

  api::BetweennessQuery warm;
  warm.epsilon = 0.1;
  warm.incremental = true;
  ASSERT_TRUE(
      dispatcher.submit({"tenant", "g", warm}).wait().status.ok);

  // A long fresh-engine query keeps the shard busy while the apply
  // quiesces it: submissions landing in that window get the typed
  // mid-apply rejection instead of queueing behind the mutation.
  api::BetweennessQuery slow;
  slow.epsilon = 0.02;
  slow.incremental = true;
  service::Ticket slow_ticket = dispatcher.submit({"tenant", "g", slow});

  std::atomic<bool> done{false};
  dynamic::ApplyReport report;
  std::thread applier([&] {
    const dynamic::Edge edge = missing_edge(*graph, 30);
    dynamic::EdgeBatch batch;
    batch.insert(edge.u, edge.v);
    report = dispatcher.apply("g", std::move(batch));
    done = true;
  });

  // Fire-and-collect: waiting on a probe here would block behind the slow
  // query and sleep straight through the mutating window.
  std::vector<service::Ticket> probes;
  while (!done.load()) {
    probes.push_back(dispatcher.submit({"tenant", "g", warm}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  applier.join();
  dispatcher.drain();
  bool saw_mid_apply = false;
  for (service::Ticket& probe : probes) {
    const service::Response& response = probe.wait();
    if (response.status.ok) continue;
    EXPECT_NE(response.status.message.find("mid-apply"), std::string::npos)
        << response.status.message;
    saw_mid_apply = true;
  }

  ASSERT_TRUE(report.status.ok) << report.status.message;
  EXPECT_TRUE(saw_mid_apply);
  EXPECT_TRUE(slow_ticket.wait().status.ok);  // pre-apply work completed
  const service::DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.applies, 1u);
  EXPECT_GE(stats.rejected_mutating, 1u);

  // The shard reopens after the apply.
  EXPECT_TRUE(dispatcher.submit({"tenant", "g", warm}).wait().status.ok);
}

}  // namespace
}  // namespace distbc
