// Distributed top-k score extraction (the workload that drives the
// gatherv/igatherv collectives).
//
// Given per-rank additive local aggregates (every rank holds the counts of
// its own samples; the elementwise sum over ranks is the global state),
// the root obtains the exact k highest-count vertices with O(k +
// candidates) wire traffic instead of moving any full |V| frame - the
// TPUT-style three-round threshold protocol (Cao & Wang, PODC'04):
//
//   1. Every rank gathers its local top-k (variable length: ranks may hold
//      fewer than k nonzero vertices). The root lower-bounds the k-th
//      global count by tau1 = the k-th largest partial sum.
//   2. The root broadcasts the threshold T = ceil(tau1 / P). Any vertex in
//      the global top-k has count >= tau1, hence a local count >= T on at
//      least one rank, so gathering every (vertex, count) with local count
//      >= T yields a complete candidate set.
//   3. The root broadcasts the candidate list; an elementwise reduction of
//      each rank's local counts over it produces exact global counts, from
//      which the root selects the top k.
//
// Ordering is (count descending, vertex ascending) throughout - the same
// tie-break BcResult::top_k applies to scores - so the result is exactly
// the root-side selection over the global aggregate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "epoch/sparse_frame.hpp"
#include "graph/graph.hpp"
#include "mpisim/comm.hpp"
#include "support/assert.hpp"

namespace distbc::bc {

struct TopKEntry {
  graph::Vertex vertex = 0;
  std::uint64_t count = 0;

  [[nodiscard]] bool operator==(const TopKEntry&) const = default;
};

/// (count desc, vertex asc) - matches BcResult::top_k's score tie-break.
inline bool top_k_before(const TopKEntry& a, const TopKEntry& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.vertex < b.vertex;
}

/// The k highest-count vertices of one frame, ordered by top_k_before.
/// O(V log k).
[[nodiscard]] inline std::vector<TopKEntry> local_top_k(
    const epoch::SparseFrame& frame, std::size_t k) {
  std::vector<TopKEntry> heap;  // min-heap on top_k_before's inverse
  const auto worse = [](const TopKEntry& a, const TopKEntry& b) {
    return top_k_before(a, b);
  };
  for (graph::Vertex v = 0; v < frame.num_vertices(); ++v) {
    const std::uint64_t count = frame.count(v);
    if (count == 0) continue;
    const TopKEntry entry{v, count};
    if (heap.size() < k) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (k > 0 && top_k_before(entry, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = entry;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

/// Exact global top-k over per-rank local aggregates. Collective over
/// `world`; the result is valid at rank zero (other ranks return empty -
/// callers that want it everywhere broadcast the 2k-word pair list, not a
/// frame). Every round moves flat (vertex, count) uint64 pairs.
[[nodiscard]] inline std::vector<TopKEntry> distributed_top_k(
    mpisim::Comm& world, const epoch::SparseFrame& local, std::size_t k) {
  const bool is_root = world.rank() == 0;
  const auto num_ranks = static_cast<std::uint64_t>(world.size());
  if (k == 0) return {};

  const auto pack = [](const std::vector<TopKEntry>& entries,
                       std::vector<std::uint64_t>& flat) {
    flat.clear();
    for (const TopKEntry& entry : entries) {
      flat.push_back(entry.vertex);
      flat.push_back(entry.count);
    }
  };

  // Round 1: local top-k in, tau1 lower bound out.
  std::vector<std::uint64_t> flat;
  pack(local_top_k(local, k), flat);
  std::vector<std::vector<std::uint64_t>> gathered;
  world.gatherv(std::span<const std::uint64_t>(flat), gathered, 0);
  std::uint64_t threshold = 1;
  if (is_root) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> partial;  // (v, sum)
    for (const auto& contribution : gathered) {
      for (std::size_t i = 0; i + 1 < contribution.size(); i += 2) {
        partial.emplace_back(contribution[i], contribution[i + 1]);
      }
    }
    std::sort(partial.begin(), partial.end());
    std::vector<std::uint64_t> sums;
    for (std::size_t i = 0; i < partial.size();) {
      std::uint64_t sum = 0;
      std::size_t j = i;
      while (j < partial.size() && partial[j].first == partial[i].first)
        sum += partial[j++].second;
      sums.push_back(sum);
      i = j;
    }
    std::uint64_t tau1 = 0;
    if (sums.size() >= k) {
      std::nth_element(sums.begin(),
                       sums.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       sums.end(), std::greater<>());
      tau1 = sums[k - 1];
    }
    threshold = std::max<std::uint64_t>(1, (tau1 + num_ranks - 1) / num_ranks);
  }
  world.bcast(std::span{&threshold, 1}, 0);

  // Round 2: everything locally at or above the threshold; the union is a
  // complete candidate set for the global top-k.
  flat.clear();
  for (graph::Vertex v = 0; v < local.num_vertices(); ++v) {
    const std::uint64_t count = local.count(v);
    if (count >= threshold) {
      flat.push_back(v);
      flat.push_back(count);
    }
  }
  world.gatherv(std::span<const std::uint64_t>(flat), gathered, 0);
  std::uint64_t num_candidates = 0;
  std::vector<std::uint64_t> candidates;
  if (is_root) {
    for (const auto& contribution : gathered)
      for (std::size_t i = 0; i + 1 < contribution.size(); i += 2)
        candidates.push_back(contribution[i]);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    num_candidates = candidates.size();
  }

  // Round 3: exact global counts for the candidates via one elementwise
  // reduction, then the final selection.
  world.bcast(std::span{&num_candidates, 1}, 0);
  if (num_candidates == 0) return {};  // every rank agrees: nothing sampled
  candidates.resize(num_candidates);
  world.bcast(std::span<std::uint64_t>(candidates), 0);
  std::vector<std::uint64_t> counts(num_candidates, 0);
  for (std::size_t i = 0; i < num_candidates; ++i) {
    DISTBC_ASSERT(candidates[i] < local.num_vertices());
    counts[i] = local.count(static_cast<graph::Vertex>(candidates[i]));
  }
  std::vector<std::uint64_t> totals(is_root ? num_candidates : 0, 0);
  world.reduce(std::span<const std::uint64_t>(counts),
               std::span<std::uint64_t>(totals), 0);
  if (!is_root) return {};

  std::vector<TopKEntry> result;
  result.reserve(num_candidates);
  for (std::size_t i = 0; i < num_candidates; ++i) {
    if (totals[i] == 0) continue;
    result.push_back({static_cast<graph::Vertex>(candidates[i]), totals[i]});
  }
  std::sort(result.begin(), result.end(), top_k_before);
  if (result.size() > k) result.resize(k);
  return result;
}

}  // namespace distbc::bc
