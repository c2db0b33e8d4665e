// Unified result type for all betweenness algorithms in the library:
// exact (Brandes), fixed sampling (RK), and the KADABRA variants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.hpp"
#include "epoch/sparse_frame.hpp"
#include "graph/graph.hpp"
#include "support/timer.hpp"

namespace distbc::bc {

struct KadabraWarmState;  // bc/kadabra.hpp

struct BcResult {
  /// Normalized betweenness per vertex: exact values or estimates b~.
  std::vector<double> scores;

  // --- Sampling statistics (zero for exact algorithms) -------------------
  std::uint64_t samples = 0;          // tau at termination
  /// Samples attempted across all threads/ranks, including overlap samples
  /// never aggregated (>= samples); drives the Figure 3b rate metric.
  std::uint64_t samples_attempted = 0;
  std::uint64_t epochs = 0;           // aggregation rounds
  std::uint64_t omega = 0;            // static budget
  /// Vertex-diameter bound omega was derived from: iFUB's upper bound in
  /// the exact value's omega bucket, or the 2-approximation.
  std::uint32_t vertex_diameter = 0;
  /// Eccentricities phase 1 computed for it (0 when a warm state skipped
  /// phase 1).
  std::uint64_t diameter_bfs = 0;

  // --- Timing -------------------------------------------------------------
  double total_seconds = 0.0;
  double adaptive_seconds = 0.0;  // adaptive-sampling phase only
  PhaseTimer phases;              // thread-zero/rank-zero phase windows

  // --- Communication (MPI variants only) ----------------------------------
  std::uint64_t comm_bytes = 0;  // total payload moved by aggregations
  /// Per-collective breakdown of comm_bytes (dense reductions, sparse
  /// merge reductions, window/p2p traffic, broadcasts).
  mpisim::CommVolume comm_volume;

  /// Engine configuration the adaptive phase actually ran with - identical
  /// to the caller's request unless the autotune path rewrote it.
  engine::EngineOptions engine_used;

  /// The k highest (vertex, score) pairs, descending by score (ties by
  /// vertex id) - filled on *every* rank when KadabraOptions::top_k > 0,
  /// delivered without moving any full |V| frame (bc/topk.hpp).
  std::vector<std::pair<graph::Vertex, double>> top_k_pairs;

  /// The phases-1-2 state this KADABRA run used (computed or passed in);
  /// feed it back through KadabraOptions::warm_start to skip diameter and
  /// calibration on a repeat run. Null for non-KADABRA algorithms.
  std::shared_ptr<const KadabraWarmState> warm;

  /// Indices of the k highest-scoring vertices, descending by score.
  [[nodiscard]] std::vector<graph::Vertex> top_k(std::size_t k) const;

  /// Largest absolute difference to another score vector (same graph).
  [[nodiscard]] double max_abs_difference(const BcResult& other) const;
};

/// Extracts normalized betweenness estimates b~(v) = c~(v) / tau from an
/// aggregated state frame (all zero when tau is 0); shared by every
/// sampling driver.
void scores_from_frame(const epoch::SparseFrame& aggregate,
                       std::vector<double>& scores);

}  // namespace distbc::bc
