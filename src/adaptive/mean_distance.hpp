// Adaptive estimation of a graph's mean shortest-path distance - the
// "other adaptive sampling algorithm" demonstrating the generic driver
// (paper's future-work claim).
//
// Samples uniform vertex pairs, measures d(s, t) with the same
// bidirectional BFS the betweenness sampler uses, and stops once the
// empirical-Bernstein confidence interval (Maurer & Pontil 2009) of the
// mean is tighter than epsilon:
//   hw(n) = sqrt(2 V_n ln(3/delta) / n) + 3 R ln(3/delta) / n <= epsilon,
// with V_n the sample variance and R an upper bound on the distance range
// (a cheap 2-approximate diameter). Everything else - wait-free per-thread
// frames, overlapped epoch transitions and reductions, selectable
// aggregation strategies, hierarchical reduction, rank-0 stop checks -
// comes from engine::run_epochs unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/engine.hpp"
#include "epoch/frame_codec.hpp"
#include "graph/graph.hpp"
#include "mpisim/comm.hpp"
#include "support/timer.hpp"

namespace distbc::tune {
struct TuningProfile;  // tune/tuner.hpp
}

namespace distbc::adaptive {

/// Flat moment accumulator: [pair count, sum of d, sum of d^2]. Three
/// words never benefit from a sparse encoding, but the wire-image
/// interface keeps the frame eligible for the representation-agnostic
/// engine path (kAuto always densifies).
class MomentFrame {
 public:
  MomentFrame() : data_(3, 0) {}

  void clear() { std::fill(data_.begin(), data_.end(), 0); }
  [[nodiscard]] bool empty() const { return count() == 0; }
  void merge(const MomentFrame& other) {
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data_; }

  // --- Wire-image interface (epoch/frame_codec.hpp) ----------------------
  [[nodiscard]] std::size_t dense_words() const { return data_.size(); }
  epoch::FrameRep encode(std::vector<std::uint64_t>& out,
                         epoch::FrameRep preference) const {
    if (preference == epoch::FrameRep::kSparse) {
      epoch::append_sparse_image_scan(data_, out);
      return epoch::FrameRep::kSparse;
    }
    epoch::append_dense_image(data_, out);
    return epoch::FrameRep::kDense;
  }
  void decode_add(std::span<const std::uint64_t> image) {
    epoch::decode_add_image(std::span<std::uint64_t>(data_), image);
  }
  void add_dense(std::span<const std::uint64_t> dense) {
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += dense[i];
  }

  void record(std::uint32_t distance) {
    data_[0] += 1;
    data_[1] += distance;
    data_[2] += static_cast<std::uint64_t>(distance) * distance;
  }

  [[nodiscard]] std::uint64_t count() const { return data_[0]; }
  [[nodiscard]] double mean() const {
    return count() == 0 ? 0.0
                        : static_cast<double>(data_[1]) /
                              static_cast<double>(data_[0]);
  }
  /// Unbiased sample variance (0 while fewer than two samples).
  [[nodiscard]] double variance() const;

 private:
  std::vector<std::uint64_t> data_;
};

struct MeanDistanceParams {
  double epsilon = 0.1;  // absolute half-width target, in hops
  double delta = 0.1;
  std::uint64_t seed = 0x5eed;
  /// Epoch-engine configuration (threads, §IV-F aggregation strategy,
  /// §IV-E hierarchical reduction, epoch-length rule).
  engine::EngineOptions engine;
  /// Autotune path: when set, the profile decides aggregation strategy,
  /// hierarchical reduction, threads per rank, and epoch sizing (against a
  /// quick per-sample probe) instead of the fields in `engine`.
  std::shared_ptr<const tune::TuningProfile> auto_tune;
  /// Distance-range upper bound for the Bernstein term; 0 = compute the
  /// 2-approximate diameter at rank 0 (and report it in
  /// MeanDistanceResult::range). api::Session feeds the reported value
  /// back so repeated queries skip the diameter probe.
  std::uint32_t known_range = 0;
  /// Skip the rank-0 connectivity assertion: the caller (api::Session)
  /// already validated it and turned failure into a status instead of an
  /// abort.
  bool assume_connected = false;
};

struct MeanDistanceResult {
  double mean = 0.0;
  double stddev = 0.0;
  double half_width = 0.0;   // final confidence half-width
  std::uint64_t samples = 0;
  std::uint64_t epochs = 0;
  std::uint32_t range = 0;   // the distance-range bound the run used
  double total_seconds = 0.0;
  /// Engine phase windows and per-collective bytes moved (valid at world
  /// rank 0) - the same observability surface BcResult has, feeding the
  /// unified api::Result.
  PhaseTimer phases;
  mpisim::CommVolume comm_volume;
  /// Engine configuration the run actually used (after autotuning).
  engine::EngineOptions engine_used;
};

/// Empirical-Bernstein half-width; exposed for tests.
[[nodiscard]] double bernstein_half_width(double variance, double range,
                                          double delta, std::uint64_t n);

/// Per-rank driver; run inside mpisim::Runtime::run on every rank.
/// Result fields are valid at world rank 0. Requires a connected graph.
[[nodiscard]] MeanDistanceResult mean_distance_rank(
    const graph::Graph& graph, const MeanDistanceParams& params,
    mpisim::Comm& world);

/// Convenience wrapper over a fresh simulated cluster.
[[nodiscard]] MeanDistanceResult mean_distance_mpi(
    const graph::Graph& graph, const MeanDistanceParams& params,
    int num_ranks, int ranks_per_node = 1, mpisim::NetworkModel network = {});

}  // namespace distbc::adaptive
