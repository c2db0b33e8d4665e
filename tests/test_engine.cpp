// Tests for the unified epoch-sampling engine: stream partitioning, the
// calibration hook, and the cross-backend reproducibility contract - in
// deterministic mode, seq / shm / mpi configurations of the engine (and
// every aggregation strategy, and the hierarchical reduction) produce
// bitwise-identical results because the per-epoch aggregate is a pure
// function of (seed, virtual streams, epoch schedule).
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/mean_distance.hpp"
#include "bc/kadabra.hpp"
#include "engine/engine.hpp"
#include "engine/streams.hpp"
#include "mpisim/runtime.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/components.hpp"

namespace distbc {
namespace {

// --- Stream partitioning ---------------------------------------------------

TEST(Streams, SharesSumToTotal) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 100ull, 1001ull}) {
    std::uint64_t sum = 0;
    for (std::uint64_t v = 0; v < 4; ++v)
      sum += engine::stream_share(total, v, 4);
    EXPECT_EQ(sum, total);
  }
}

TEST(Streams, RemainderGoesToLowestStreams) {
  EXPECT_EQ(engine::stream_share(10, 0, 4), 3u);
  EXPECT_EQ(engine::stream_share(10, 1, 4), 3u);
  EXPECT_EQ(engine::stream_share(10, 2, 4), 2u);
  EXPECT_EQ(engine::stream_share(10, 3, 4), 2u);
}

TEST(Streams, OwnerIsGlobalThreadIndexModuloThreads) {
  EXPECT_EQ(engine::stream_owner(0, 4), 0u);
  EXPECT_EQ(engine::stream_owner(3, 4), 3u);
  EXPECT_EQ(engine::stream_owner(6, 4), 2u);
}

TEST(Streams, ThreadWorkspacesShareOneWorkspacePerThread) {
  // 2 ranks x 2 threads: stream v runs on global thread v mod 4, which is
  // local thread (v mod 4) mod 2 of its rank.
  engine::EngineOptions options;
  options.threads_per_rank = 2;
  engine::ThreadWorkspaces<std::vector<int>> workspaces(16);
  const auto first = workspaces.for_stream(0, options, 2);
  EXPECT_EQ(first->size(), 16u);
  EXPECT_EQ(workspaces.for_stream(2, options, 2), first);
  EXPECT_EQ(workspaces.for_stream(6, options, 2), first);
  const auto second = workspaces.for_stream(1, options, 2);
  EXPECT_NE(second, first);
  EXPECT_EQ(workspaces.for_stream(7, options, 2), second);
}

// --- Calibration hook ------------------------------------------------------

struct CountFrame {
  std::vector<std::uint64_t> data{0};
  void clear() { data[0] = 0; }
  void merge(const CountFrame& other) { data[0] += other.data[0]; }
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data; }
  void add_dense(std::span<const std::uint64_t> dense) { data[0] += dense[0]; }
};

struct CountSampler {
  void sample(CountFrame& frame) { ++frame.data[0]; }
};

TEST(EngineCalibrate, DistributesBudgetExactlyAcrossRanks) {
  mpisim::RuntimeConfig config;
  config.num_ranks = 3;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.threads_per_rank = 2;
    const CountFrame frame = engine::calibrate(
        &world, CountFrame{}, [](std::uint64_t) { return CountSampler{}; },
        /*total_budget=*/1001, options);
    if (world.rank() == 0) {
      EXPECT_EQ(frame.data[0], 1001u);
    }
  });
}

TEST(EngineCalibrate, SingleRankTakesWholeBudget) {
  engine::EngineOptions options;
  options.threads_per_rank = 3;
  const CountFrame frame = engine::calibrate(
      nullptr, CountFrame{}, [](std::uint64_t) { return CountSampler{}; },
      /*total_budget=*/500, options);
  EXPECT_EQ(frame.data[0], 500u);
}

// --- Cross-backend reproducibility (deterministic mode) --------------------

graph::Graph equivalence_graph() {
  return graph::largest_component(gen::erdos_renyi(120, 360, 4242));
}

bc::KadabraOptions deterministic_options(int threads) {
  bc::KadabraOptions options;
  options.params.epsilon = 0.15;
  options.params.seed = 1234;
  options.engine.threads_per_rank = threads;
  options.engine.deterministic = true;
  options.engine.virtual_streams = 4;
  options.engine.epoch_base = 64;
  options.engine.epoch_exponent = 0.0;
  return options;
}

void expect_bitwise_equal(const bc::BcResult& a, const bc::BcResult& b,
                          const char* label) {
  EXPECT_EQ(a.samples, b.samples) << label;
  EXPECT_EQ(a.epochs, b.epochs) << label;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << label;
  for (std::size_t v = 0; v < a.scores.size(); ++v)
    EXPECT_EQ(a.scores[v], b.scores[v]) << label << " vertex " << v;
}

TEST(EngineEquivalence, SeqShmMpiProduceIdenticalAggregates) {
  const graph::Graph graph = equivalence_graph();
  // seq = 1 rank x 1 thread, shm = 1 rank x 4 threads, mpi = 2 ranks x 2
  // threads; all draw from the same 4 virtual streams.
  const bc::BcResult seq = bc::kadabra_shm(graph, deterministic_options(1));
  const bc::BcResult shm = bc::kadabra_shm(graph, deterministic_options(4));
  const bc::BcResult mpi =
      bc::kadabra_mpi(graph, deterministic_options(2), /*num_ranks=*/2,
                      /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
  ASSERT_GT(seq.samples, 0u);
  expect_bitwise_equal(seq, shm, "seq vs shm");
  expect_bitwise_equal(seq, mpi, "seq vs mpi");
}

TEST(EngineEquivalence, AggregationStrategiesAreBitwiseIdentical) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::Aggregation aggregation) {
    bc::KadabraOptions options = deterministic_options(2);
    options.engine.aggregation = aggregation;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/2,
                           /*ranks_per_node=*/1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult barrier = run(engine::Aggregation::kIbarrierReduce);
  const bc::BcResult ireduce = run(engine::Aggregation::kIreduce);
  const bc::BcResult blocking = run(engine::Aggregation::kBlocking);
  ASSERT_GT(barrier.samples, 0u);
  expect_bitwise_equal(barrier, ireduce, "ibarrier+reduce vs ireduce");
  expect_bitwise_equal(barrier, blocking, "ibarrier+reduce vs blocking");
}

// The frame-representation contract: in deterministic mode, dense, sparse,
// and auto wire representations are bitwise identical across every §IV-F
// aggregation strategy, with and without the §IV-E hierarchy - the sparse
// delta images carry exact uint64 counts and decode by commutative sums,
// so nothing about the result may depend on the encoding.
TEST(EngineEquivalence, FrameRepresentationSweepIsBitwiseIdentical) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::FrameRep rep, engine::Aggregation aggregation,
                 bool hierarchical) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.frame_rep = rep;
    options.engine.aggregation = aggregation;
    options.engine.hierarchical = hierarchical;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/4,
                           /*ranks_per_node=*/hierarchical ? 2 : 1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult baseline = run(engine::FrameRep::kDense,
                                    engine::Aggregation::kIbarrierReduce,
                                    /*hierarchical=*/false);
  ASSERT_GT(baseline.samples, 0u);
  for (const engine::FrameRep rep :
       {engine::FrameRep::kDense, engine::FrameRep::kSparse,
        engine::FrameRep::kAuto}) {
    for (const engine::Aggregation aggregation :
         {engine::Aggregation::kIbarrierReduce, engine::Aggregation::kIreduce,
          engine::Aggregation::kBlocking}) {
      for (const bool hierarchical : {false, true}) {
        const bc::BcResult result = run(rep, aggregation, hierarchical);
        const std::string label =
            std::string(epoch::frame_rep_name(rep)) + " / " +
            engine::aggregation_name(aggregation) +
            (hierarchical ? " / hierarchical" : " / flat");
        expect_bitwise_equal(baseline, result, label.c_str());
      }
    }
  }
}

std::uint64_t score_checksum(const std::vector<double>& scores) {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a over the bits
  for (const double score : scores) {
    const auto word = std::bit_cast<std::uint64_t>(score);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// Golden pin of the deterministic draw order: a 2-rank run over 6 virtual
// streams - three per thread sharing one traversal kernel, or with two
// threads per rank - must reproduce the samples, epochs and score bits
// the two-array reference traversal produced.
TEST(EngineEquivalence, GoldenVirtualStreamRunPinsTheDrawOrder) {
  const graph::Graph graph = gen::barabasi_albert(1500, 3, 11);
  for (const int threads : {1, 2}) {
    bc::KadabraOptions options;
    options.params.epsilon = 0.02;
    options.params.seed = 2024;
    options.engine.threads_per_rank = threads;
    options.engine.deterministic = true;
    options.engine.virtual_streams = 6;
    options.engine.epoch_base = 500;
    options.engine.epoch_exponent = 0.0;
    const bc::BcResult result =
        bc::kadabra_mpi(graph, options, /*num_ranks=*/2,
                        /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
    EXPECT_EQ(result.samples, 6500u) << threads << " threads";
    EXPECT_EQ(result.epochs, 13u) << threads << " threads";
    EXPECT_EQ(score_checksum(result.scores), 0xd64eb42c47f01179ull)
        << threads << " threads";
  }
}

// Sparse runs move strictly fewer aggregation bytes than dense ones on a
// sparsely-hit instance (the motivating claim, checked end to end).
TEST(EngineEquivalence, SparseRepresentationShrinksAggregationBytes) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::FrameRep rep) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.frame_rep = rep;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/4,
                           /*ranks_per_node=*/1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult dense = run(engine::FrameRep::kDense);
  const bc::BcResult sparse = run(engine::FrameRep::kSparse);
  EXPECT_GT(dense.comm_volume.reduce_bytes, 0u);
  EXPECT_EQ(dense.comm_volume.reduce_merge_bytes, 0u);
  // The sparse run's frames travel exclusively as merge reductions; its
  // only elementwise reduce is the one-word samples_attempted bookkeeping.
  EXPECT_GT(sparse.comm_volume.reduce_merge_bytes, 0u);
  EXPECT_LE(sparse.comm_volume.reduce_bytes, 3 * sizeof(std::uint64_t));
  EXPECT_LT(sparse.comm_volume.aggregation_bytes(),
            dense.comm_volume.aggregation_bytes());
}

// Tree-merge aggregation: interior-rank image combining (any radix, with
// or without the hierarchy on top) must be bitwise identical to the flat
// decentralized merge - decoding is a commutative sum - while the root
// ingests strictly fewer bytes than under a rooted flat-shaped merge
// (radix >= P makes every rank a direct child of the root, the old
// flat-reduction hotspot; every per-rank image shares at least the tau
// pair, so interior unions shrink what reaches the top).
TEST(EngineEquivalence, TreeMergeIsBitwiseIdenticalAndCutsRootIngest) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::FrameRep rep, int radix, bool hierarchical) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.virtual_streams = 8;
    options.engine.frame_rep = rep;
    options.engine.tree_radix = radix;
    options.engine.hierarchical = hierarchical;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/8,
                           /*ranks_per_node=*/hierarchical ? 2 : 1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult flat =
      run(engine::FrameRep::kSparse, /*radix=*/0, /*hierarchical=*/false);
  ASSERT_GT(flat.samples, 0u);
  const bc::BcResult rooted =
      run(engine::FrameRep::kSparse, /*radix=*/8, /*hierarchical=*/false);
  expect_bitwise_equal(flat, rooted, "flat all-reduce vs rooted radix-8");
  ASSERT_GT(rooted.comm_volume.root_ingest_bytes, 0u);
  for (const engine::FrameRep rep :
       {engine::FrameRep::kDense, engine::FrameRep::kSparse,
        engine::FrameRep::kAuto}) {
    for (const int radix : {2, 3, 4}) {
      for (const bool hierarchical : {false, true}) {
        const bc::BcResult result = run(rep, radix, hierarchical);
        const std::string label = std::string(epoch::frame_rep_name(rep)) +
                                  " / radix " + std::to_string(radix) +
                                  (hierarchical ? " / hierarchical" : "");
        expect_bitwise_equal(flat, result, label.c_str());
        if (rep != engine::FrameRep::kDense && !hierarchical) {
          EXPECT_LT(result.comm_volume.root_ingest_bytes,
                    rooted.comm_volume.root_ingest_bytes)
              << label;
        }
      }
    }
  }
}

// The two-level merge path: §IV-E node-window pre-reduction below a
// leader-level radix tree, radix picked per hop class via leader_radix.
// Every (leader_radix x frame_rep x strategy) cell must be bitwise
// identical to the flat single-level baseline, and leader_radix = 0 must
// inherit tree_radix (single-knob configurations keep their shape).
TEST(EngineEquivalence, TwoLevelSweepIsBitwiseIdentical) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](int leader_radix, engine::FrameRep rep,
                 engine::Aggregation aggregation) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.virtual_streams = 8;
    options.engine.frame_rep = rep;
    options.engine.aggregation = aggregation;
    options.engine.hierarchical = true;
    options.engine.leader_radix = leader_radix;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/8,
                           /*ranks_per_node=*/2,
                           mpisim::NetworkModel::disabled());
  };
  bc::KadabraOptions flat_options = deterministic_options(1);
  flat_options.engine.virtual_streams = 8;
  const bc::BcResult baseline =
      bc::kadabra_mpi(graph, flat_options, /*num_ranks=*/8,
                      /*ranks_per_node=*/1, mpisim::NetworkModel::disabled());
  ASSERT_GT(baseline.samples, 0u);
  for (const int leader_radix : {0, 2, 3}) {
    for (const engine::FrameRep rep :
         {engine::FrameRep::kDense, engine::FrameRep::kSparse,
          engine::FrameRep::kAuto}) {
      for (const engine::Aggregation aggregation :
           {engine::Aggregation::kIbarrierReduce, engine::Aggregation::kIreduce,
            engine::Aggregation::kBlocking}) {
        const bc::BcResult result = run(leader_radix, rep, aggregation);
        const std::string label =
            "leader radix " + std::to_string(leader_radix) + " / " +
            epoch::frame_rep_name(rep) + " / " +
            engine::aggregation_name(aggregation);
        expect_bitwise_equal(baseline, result, label.c_str());
      }
    }
  }
}

// Decentralized termination's core contract: run_epochs leaves the
// identical merged aggregate on EVERY rank (the stopping rule is evaluated
// locally everywhere), not just at world rank zero.
TEST(EngineEquivalence, EveryRankHoldsTheGlobalAggregate) {
  mpisim::RuntimeConfig config;
  config.num_ranks = 4;
  config.ranks_per_node = 2;
  config.network = mpisim::NetworkModel::disabled();
  mpisim::Runtime runtime(config);
  std::vector<std::uint64_t> per_rank(4, 0);
  runtime.run([&](mpisim::Comm& world) {
    engine::EngineOptions options;
    options.deterministic = true;
    options.virtual_streams = 4;
    options.epoch_base = 40;
    options.epoch_exponent = 0.0;
    options.hierarchical = true;
    const auto result = engine::run_epochs(
        &world, CountFrame{}, [](std::uint64_t) { return CountSampler{}; },
        [](const CountFrame& frame) { return frame.data[0] >= 100; },
        options);
    per_rank[world.rank()] = result.aggregate.data[0];
  });
  EXPECT_GE(per_rank[0], 100u);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(per_rank[r], per_rank[0]) << r;
}

// Regression: with the non-blocking strategy, a fast non-root rank's
// ireduce_merge_tree completes at its own injection deadline and leaves
// the epoch's aggregation scope while stragglers are still posting; the
// stored combiner then runs at the last arrival. It must own its captures
// - a by-reference capture of the epoch-scope locals was a
// use-after-scope here (the CI sanitize leg runs this under ASan).
TEST(EngineEquivalence, TreeMergeSurvivesNonBlockingStragglers) {
  const graph::Graph graph = equivalence_graph();
  auto run = [&](engine::FrameRep rep) {
    bc::KadabraOptions options = deterministic_options(1);
    options.engine.aggregation = engine::Aggregation::kIreduce;
    options.engine.tree_radix = 2;
    options.engine.frame_rep = rep;
    return bc::kadabra_mpi(graph, options, /*num_ranks=*/4,
                           /*ranks_per_node=*/1,
                           mpisim::NetworkModel::disabled());
  };
  const bc::BcResult sparse = run(engine::FrameRep::kSparse);
  ASSERT_GT(sparse.samples, 0u);
  expect_bitwise_equal(sparse, run(engine::FrameRep::kAuto),
                       "ireduce tree sparse vs auto");
}

TEST(EngineEquivalence, HierarchicalReductionMatchesFlat) {
  const graph::Graph graph = equivalence_graph();
  bc::KadabraOptions flat = deterministic_options(1);
  bc::KadabraOptions hierarchical = deterministic_options(1);
  hierarchical.engine.hierarchical = true;
  const bc::BcResult a =
      bc::kadabra_mpi(graph, flat, /*num_ranks=*/4, /*ranks_per_node=*/1,
                      mpisim::NetworkModel::disabled());
  const bc::BcResult b =
      bc::kadabra_mpi(graph, hierarchical, /*num_ranks=*/4,
                      /*ranks_per_node=*/2, mpisim::NetworkModel::disabled());
  expect_bitwise_equal(a, b, "flat vs hierarchical");
}

// --- Engine options reach the ported adaptive algorithms -------------------

TEST(EngineOptionsPropagate, MeanDistanceSupportsStrategiesAndHierarchy) {
  const graph::Graph graph =
      graph::largest_component(gen::erdos_renyi(200, 600, 91));
  adaptive::MeanDistanceParams params;
  params.epsilon = 0.15;
  params.engine.aggregation = engine::Aggregation::kBlocking;
  params.engine.hierarchical = true;
  const adaptive::MeanDistanceResult result = adaptive::mean_distance_mpi(
      graph, params, /*num_ranks=*/4, /*ranks_per_node=*/2);
  EXPECT_GT(result.samples, 0u);
  EXPECT_LE(result.half_width, params.epsilon);
}

}  // namespace
}  // namespace distbc
