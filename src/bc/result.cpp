#include "bc/result.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace distbc::bc {

std::vector<graph::Vertex> BcResult::top_k(std::size_t k) const {
  std::vector<graph::Vertex> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<graph::Vertex>(i);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](graph::Vertex a, graph::Vertex b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

double BcResult::max_abs_difference(const BcResult& other) const {
  DISTBC_ASSERT(scores.size() == other.scores.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i)
    worst = std::max(worst, std::abs(scores[i] - other.scores[i]));
  return worst;
}

void scores_from_frame(const epoch::SparseFrame& aggregate,
                       std::vector<double>& scores) {
  const std::uint32_t n = aggregate.num_vertices();
  scores.assign(n, 0.0);
  const auto tau = static_cast<double>(aggregate.tau());
  if (tau == 0.0) return;
  for (std::uint32_t v = 0; v < n; ++v)
    scores[v] = static_cast<double>(aggregate.count(v)) / tau;
}

}  // namespace distbc::bc
