// The network presets (mpisim/network.hpp: comm_substrate = mpisim |
// ncclsim) and their threading through api::Session: the preset changes
// the modeled link economics of the one communicator - never the traffic
// and never the scores. Deterministic-mode results must be bitwise
// identical across mpisim x ncclsim under every aggregation topology and
// frame representation; the ncclsim all-reduce must price the NCCL ring
// closed form; Results report the preset that ran them; and tuning
// profiles round-trip the preset tag plus any keys a newer library
// wrote.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/components.hpp"
#include "mpisim/network.hpp"
#include "tune/tuner.hpp"

namespace distbc {
namespace {

// --- Substrate naming -------------------------------------------------------

TEST(SubstrateNames, RoundTripAndRejection) {
  EXPECT_STREQ(mpisim::substrate_name(mpisim::SubstrateKind::kMpisim),
               "mpisim");
  EXPECT_STREQ(mpisim::substrate_name(mpisim::SubstrateKind::kNcclsim),
               "ncclsim");
  for (const auto kind :
       {mpisim::SubstrateKind::kMpisim, mpisim::SubstrateKind::kNcclsim}) {
    const auto parsed =
        mpisim::substrate_from_name(mpisim::substrate_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(mpisim::substrate_from_name("nccl").has_value());
  EXPECT_FALSE(mpisim::substrate_from_name("").has_value());
  EXPECT_FALSE(mpisim::substrate_from_name("MPISIM").has_value());
}

// --- The modeled NCCL economics ---------------------------------------------

TEST(NcclSimModel, ProfileLayersOnTopOfTheBase) {
  mpisim::NetworkModel base;
  base.dedicated_cores = true;
  const mpisim::NetworkModel same =
      mpisim::network_model_for(mpisim::SubstrateKind::kMpisim, base);
  EXPECT_EQ(same.remote_latency_s, base.remote_latency_s);
  EXPECT_FALSE(same.ring_allreduce);

  const mpisim::NetworkModel nccl =
      mpisim::network_model_for(mpisim::SubstrateKind::kNcclsim, base);
  EXPECT_TRUE(nccl.ring_allreduce);
  EXPECT_GT(nccl.launch_latency_s, 0.0);
  EXPECT_EQ(nccl.ireduce_progression_factor, 1.0);
  EXPECT_EQ(nccl.ireduce_poll_cost_s, 0.0);
  // Base switches the profile must not clobber.
  EXPECT_TRUE(nccl.dedicated_cores);
  EXPECT_TRUE(nccl.enabled);

  mpisim::NetworkModel off = base;
  off.enabled = false;
  const mpisim::NetworkModel nccl_off =
      mpisim::network_model_for(mpisim::SubstrateKind::kNcclsim, off);
  EXPECT_FALSE(nccl_off.enabled);
  EXPECT_EQ(nccl_off.allreduce_cost(1 << 20, 4, 2).count(), 0);
}

TEST(NcclSimModel, AllreduceMatchesTheRingClosedForm) {
  const mpisim::NetworkModel nccl =
      mpisim::network_model_for(mpisim::SubstrateKind::kNcclsim, {});
  struct Shape {
    int ranks_per_node;
    int num_nodes;
  };
  for (const Shape shape : {Shape{4, 2}, Shape{8, 1}, Shape{2, 8}}) {
    const double total_ranks =
        static_cast<double>(shape.ranks_per_node * shape.num_nodes);
    const double alpha = shape.num_nodes > 1 ? nccl.remote_latency_s
                                             : nccl.local_latency_s;
    const double beta = shape.num_nodes > 1 ? nccl.remote_bandwidth_bps
                                            : nccl.local_bandwidth_bps;
    for (const std::uint64_t bytes :
         {std::uint64_t{4096}, std::uint64_t{1} << 20}) {
      const double steps = 2.0 * (total_ranks - 1.0);
      const double closed = nccl.launch_latency_s + steps * alpha +
                            steps / total_ranks *
                                static_cast<double>(bytes) / beta;
      const double charged =
          static_cast<double>(
              nccl.allreduce_cost(bytes, shape.ranks_per_node,
                                  shape.num_nodes)
                  .count()) *
          1e-9;
      // The model charges on an integer-nanosecond clock; allow that
      // quantum on top of the 1e-6 relative band.
      EXPECT_NEAR(charged, closed, 1e-6 * closed + 1.5e-9)
          << shape.ranks_per_node << "x" << shape.num_nodes << " @ "
          << bytes;
    }
  }
  // A single rank pays only the kernel launch.
  EXPECT_NEAR(static_cast<double>(nccl.allreduce_cost(1 << 20, 1, 1).count()),
              nccl.launch_latency_s * 1e9, 1.0);
}

// --- Bitwise parity through api::Session ------------------------------------

std::shared_ptr<const graph::Graph> parity_graph() {
  static const auto graph = std::make_shared<const graph::Graph>(
      graph::largest_component(gen::barabasi_albert(300, 3, 19)));
  return graph;
}

api::Config parity_config(mpisim::SubstrateKind substrate,
                          engine::FrameRep rep, bool hierarchical,
                          int tree_radix, int leader_radix) {
  api::Config config;
  config.ranks = 4;
  config.ranks_per_node = hierarchical ? 2 : 1;
  config.comm_substrate = substrate;
  config.seed = 97;
  config.exact_diameter = false;
  config.deterministic = true;
  config.virtual_streams = 4;
  config.epoch_base = 64;
  config.epoch_exponent = 0.0;
  config.frame_rep = rep;
  config.hierarchical = hierarchical;
  config.tree_radix = tree_radix;
  config.leader_radix = leader_radix;
  return config;
}

api::Result parity_run(const api::Config& config) {
  api::Session session(parity_graph(), config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  api::Result result = session.run(query);
  EXPECT_TRUE(result.status.ok) << result.status.message;
  return result;
}

TEST(SubstrateParity, BitwiseScoresAcrossSubstratesTopologiesAndReps) {
  struct Topology {
    const char* name;
    bool hierarchical;
    int tree_radix;
    int leader_radix;
  };
  const Topology topologies[] = {
      {"flat", false, 0, 0},
      {"tree", false, 2, 0},
      {"two_level", true, 0, 2},
  };
  const engine::FrameRep reps[] = {engine::FrameRep::kDense,
                                   engine::FrameRep::kSparse,
                                   engine::FrameRep::kAuto};

  const api::Result reference =
      parity_run(parity_config(mpisim::SubstrateKind::kMpisim,
                               engine::FrameRep::kDense, false, 0, 0));
  ASSERT_GT(reference.samples, 0u);

  for (const Topology& topology : topologies) {
    for (const engine::FrameRep rep : reps) {
      // Per (topology, rep): the two substrates must agree bitwise with
      // the reference AND move identical traffic - a backend changes the
      // clock, never the bytes.
      std::uint64_t mpisim_total = 0;
      for (const auto substrate :
           {mpisim::SubstrateKind::kMpisim, mpisim::SubstrateKind::kNcclsim}) {
        const api::Result result = parity_run(
            parity_config(substrate, rep, topology.hierarchical,
                          topology.tree_radix, topology.leader_radix));
        const std::string label = std::string(topology.name) + "/" +
                                  epoch::frame_rep_name(rep) + "/" +
                                  mpisim::substrate_name(substrate);
        EXPECT_EQ(result.samples, reference.samples) << label;
        EXPECT_EQ(result.epochs, reference.epochs) << label;
        ASSERT_EQ(result.scores.size(), reference.scores.size()) << label;
        for (std::size_t v = 0; v < result.scores.size(); ++v)
          ASSERT_EQ(result.scores[v], reference.scores[v])
              << label << " vertex " << v;
        if (substrate == mpisim::SubstrateKind::kMpisim)
          mpisim_total = result.comm_volume.total();
        else
          EXPECT_EQ(result.comm_volume.total(), mpisim_total) << label;
      }
    }
  }
}

// --- Result attribution -----------------------------------------------------

TEST(SubstrateUsed, ResultsReportTheBackendThatRanThem) {
  // Every query kind that runs on the session's communicator reports the
  // configured preset: betweenness, closeness and mean distance alike.
  for (const auto substrate :
       {mpisim::SubstrateKind::kMpisim, mpisim::SubstrateKind::kNcclsim}) {
    const std::string name = mpisim::substrate_name(substrate);
    api::Session session(parity_graph(),
                         parity_config(substrate, engine::FrameRep::kSparse,
                                       false, 2, 0));

    api::BetweennessQuery betweenness;
    betweenness.epsilon = 0.15;
    const api::Result bc_result = session.run(betweenness);
    ASSERT_TRUE(bc_result.status.ok) << bc_result.status.message;
    EXPECT_EQ(bc_result.substrate_used, name);

    api::ClosenessRankQuery closeness;
    closeness.epsilon = 0.2;
    const api::Result closeness_result = session.run(closeness);
    ASSERT_TRUE(closeness_result.status.ok)
        << closeness_result.status.message;
    EXPECT_EQ(closeness_result.substrate_used, name);

    api::MeanDistanceQuery mean_distance;
    mean_distance.epsilon = 0.2;
    const api::Result mean_result = session.run(mean_distance);
    ASSERT_TRUE(mean_result.status.ok) << mean_result.status.message;
    EXPECT_EQ(mean_result.substrate_used, name);
  }
}

TEST(SubstrateUsed, CommunicatorFreeRunsLeaveItEmpty) {
  // Below the exact threshold the query runs single-process Brandes: no
  // communicator exists, so no substrate is attributed.
  api::Config config;
  config.exact_threshold = 100000;
  api::Session session(parity_graph(), config);
  api::BetweennessQuery query;
  query.epsilon = 0.15;
  const api::Result result = session.run(query);
  ASSERT_TRUE(result.status.ok) << result.status.message;
  EXPECT_TRUE(result.substrate_used.empty());
}

// --- Config key and profile round-trips -------------------------------------

TEST(SubstrateConfig, KeyParsesAndSerializes) {
  api::Config config;
  ASSERT_TRUE(config.set("comm_substrate", "ncclsim").ok);
  EXPECT_EQ(config.comm_substrate, mpisim::SubstrateKind::kNcclsim);
  EXPECT_NE(config.serialize().find("comm_substrate = ncclsim"),
            std::string::npos);
  const auto status = config.set("comm_substrate", "infiniband");
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(config.comm_substrate, mpisim::SubstrateKind::kNcclsim)
      << "rejected values must not clobber the config";
}

TEST(TuningProfile, SubstrateTagRoundTrips) {
  tune::TuningProfile profile;
  profile.shape = {4, 2, 1};
  profile.substrate = mpisim::SubstrateKind::kNcclsim;
  const std::string text = profile.serialize();
  EXPECT_NE(text.find("comm.substrate = ncclsim"), std::string::npos);
  const auto reparsed = tune::TuningProfile::parse(text);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->substrate, mpisim::SubstrateKind::kNcclsim);
  EXPECT_EQ(reparsed->shape, profile.shape);

  // A profile written before the substrate tag existed reads as mpisim.
  tune::TuningProfile legacy;
  std::string legacy_text = legacy.serialize();
  const auto pos = legacy_text.find("comm.substrate");
  ASSERT_NE(pos, std::string::npos);
  legacy_text.erase(pos, legacy_text.find('\n', pos) - pos + 1);
  const auto parsed = tune::TuningProfile::parse(legacy_text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->substrate, mpisim::SubstrateKind::kMpisim);

  // An unknown backend name is a malformed profile, not a silent default.
  EXPECT_FALSE(
      tune::TuningProfile::parse(legacy.serialize() + "comm.substrate = warp\n")
          .has_value());
}

TEST(TuningProfile, UnknownKeysSurviveTheRoundTrip) {
  tune::TuningProfile profile;
  profile.shape = {8, 4, 2};
  const std::string text = profile.serialize() +
                           "future.knob = 7\n"
                           "vendor.hint = fast-path\n";
  const auto parsed = tune::TuningProfile::parse(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->extras.size(), 2u);
  EXPECT_EQ(parsed->extras[0].first, "future.knob");
  EXPECT_EQ(parsed->extras[0].second, "7");
  EXPECT_EQ(parsed->extras[1].first, "vendor.hint");
  EXPECT_EQ(parsed->extras[1].second, "fast-path");

  // serialize() re-emits them, so a newer library's profile passes
  // through an older one without losing fields.
  const std::string reserialized = parsed->serialize();
  EXPECT_NE(reserialized.find("future.knob = 7"), std::string::npos);
  EXPECT_NE(reserialized.find("vendor.hint = fast-path"), std::string::npos);
  const auto round_two = tune::TuningProfile::parse(reserialized);
  ASSERT_TRUE(round_two.has_value());
  EXPECT_EQ(round_two->extras, parsed->extras);
  EXPECT_EQ(round_two->shape, profile.shape);
}

}  // namespace
}  // namespace distbc
