// The Riondato-Kornaropoulos (RK) algorithm: fixed-budget shortest-path
// sampling with a VC-dimension bound (DMKD 2016). KADABRA's predecessor and
// the non-adaptive baseline: it always takes the full budget
//   r = (c/eps^2) (floor(log2(VD - 2)) + 1 + ln(1/delta))
// samples, where adaptive KADABRA usually stops far earlier.
#pragma once

#include "bc/result.hpp"
#include "graph/graph.hpp"

namespace distbc::bc {

struct RkParams {
  double epsilon = 0.01;
  double delta = 0.1;
  /// Phase 1: iFUB stopped at the omega bucket (true) or the
  /// 2-approximation (false).
  bool exact_diameter = true;
  std::uint64_t seed = 0x5eed;
};

/// The budget r above for a vertex-diameter bound; reads the bound only
/// through graph::omega_bucket.
[[nodiscard]] std::uint64_t rk_budget(std::uint32_t vertex_diameter,
                                      double epsilon, double delta);

/// `num_threads` workers sample in parallel into private frames that are
/// merged once at the end (non-adaptive sampling parallelizes trivially -
/// the contrast motivating the paper's entire aggregation machinery).
[[nodiscard]] BcResult rk(const graph::Graph& graph, const RkParams& params,
                          int num_threads = 1);

}  // namespace distbc::bc
