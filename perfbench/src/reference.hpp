// Exact references for the benchmark's correctness checks. Every function
// here runs outside the timed windows.
//
//   * betweenness: bc::brandes_parallel;
//   * harmonic closeness and mean distance: all-pairs BFS in this file,
//     independent of the adaptive/ estimators under test.
//
// References are cached by graph::fingerprint, in memory and, when a cache
// directory is given, on disk: the graph structures are fixed, so the runs
// of one checkout compute each reference once.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

struct DistanceReference {
  /// h(v) = (1 / (n - 1)) * sum over u != v of 1 / d(u, v).
  std::vector<double> harmonic;
  /// Mean of d(s, t) over ordered pairs s != t.
  double mean_distance = 0.0;
};

class References {
 public:
  /// `cache_dir` empty: memory only.
  explicit References(std::string cache_dir) : dir_(std::move(cache_dir)) {}

  /// Normalized exact betweenness of every vertex.
  [[nodiscard]] const std::vector<double>& betweenness(
      const distbc::graph::Graph& graph);
  /// All-pairs BFS distances of a connected graph.
  [[nodiscard]] const DistanceReference& distances(
      const distbc::graph::Graph& graph);

 private:
  std::string dir_;
  std::map<std::uint64_t, std::vector<double>> betweenness_;
  std::map<std::uint64_t, DistanceReference> distances_;
};

/// Largest |a[i] - b[i]|; infinity when the sizes differ or a value is not
/// finite, so a malformed estimate always fails the check.
[[nodiscard]] double max_abs_error(std::span<const double> estimate,
                                   std::span<const double> exact);

}  // namespace perfbench
