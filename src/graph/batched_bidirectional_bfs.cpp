#include "graph/batched_bidirectional_bfs.hpp"

#include <algorithm>

#include "graph/bfs.hpp"

#if (defined(__GNUC__) || defined(__clang__)) && !defined(DISTBC_NO_SW_PREFETCH)
#define DISTBC_PREFETCH_R(addr) __builtin_prefetch((addr), 0, 1)
#define DISTBC_PREFETCH_W(addr) __builtin_prefetch((addr), 1, 1)
#else
#define DISTBC_PREFETCH_R(addr) ((void)(addr))
#define DISTBC_PREFETCH_W(addr) ((void)(addr))
#endif

namespace distbc::graph {

namespace {
/// Adjacency lookahead for the software prefetches: far enough to cover
/// one miss latency, near enough to stay inside typical hub lists.
constexpr std::size_t kPrefetchAhead = 8;
}  // namespace

BatchedBidirectionalBfs::BatchedBidirectionalBfs(const Graph& graph,
                                                 int capacity)
    : graph_(&graph), capacity_(capacity) {
  DISTBC_ASSERT_MSG(capacity >= 1 && capacity <= kMaxBatch,
                    "batch capacity must be in [1, 64]");
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  const auto b = static_cast<std::size_t>(capacity);
  visit_.assign(n, {});
  for (SideState& side : sides_) {
    side.sigma.assign(n, 0.0);
    side.order.reserve(1024);
    side.level_starts.reserve(64);
  }
  s_.assign(b, kInvalidVertex);
  t_.assign(b, kInvalidVertex);
  results_.resize(b);
  meet_level_.assign(b, 0);
  meeting_vertices_.resize(b);
  meeting_weights_.resize(b);
  touched_.assign(b, 0);
}

void BatchedBidirectionalBfs::clear_batch() {
  staged_ = 0;
  ran_ = false;
  last_run_ = -1;
}

int BatchedBidirectionalBfs::stage(Vertex s, Vertex t) {
  if (ran_) clear_batch();
  if (staged_ == capacity_) return -1;
  DISTBC_ASSERT(s < graph_->num_vertices() && t < graph_->num_vertices());
  DISTBC_ASSERT_MSG(s != t, "betweenness pairs must be distinct");
  const int lane = staged_++;
  const auto l = static_cast<std::size_t>(lane);
  s_[l] = s;
  t_[l] = t;
  return lane;
}

void BatchedBidirectionalBfs::run_staged() {
  DISTBC_ASSERT_MSG(!ran_, "batch already ran; stage() a new one");
  // Searches execute lazily (see ensure_ran): running lane k right before
  // its result and path draws are consumed keeps the one shared workspace
  // hot through the lane's whole lifecycle.
  ran_ = true;
}

void BatchedBidirectionalBfs::run(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  DISTBC_ASSERT(pairs.size() <= static_cast<std::size_t>(capacity_));
  if (ran_) clear_batch();
  DISTBC_ASSERT_MSG(staged_ == 0, "run() requires an empty batch");
  for (const auto& [s, t] : pairs) (void)stage(s, t);
  run_staged();
}

void BatchedBidirectionalBfs::run_lane(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  // Scalar-identical per-search reset: one generation bump retires the
  // previous lane's visit records.
  ++generation_;
  if (generation_ == 0) {  // stamp wraparound: rare full clear
    std::fill(visit_.begin(), visit_.end(), VisitRecord{});
    generation_ = 1;
  }
  results_[l] = {};
  meet_level_[l] = 0;
  meeting_vertices_[l].clear();
  meeting_weights_[l].clear();
  touched_[l] = 0;

  const Vertex roots[2] = {s_[l], t_[l]};
  for (int si = 0; si < 2; ++si) {
    SideState& side = sides_[si];
    side.order.clear();
    side.level_starts.clear();
    side.completed_levels = 0;
    side.volume_valid = false;
    VisitRecord& r = visit_[roots[si]];
    r.side[si].stamp = generation_;
    r.side[si].dist = 0;
    side.sigma[roots[si]] = 1.0;
    side.order.push_back(roots[si]);
    side.level_starts.push_back(0);
  }

  while (!step_lane(lane)) {
  }
}

bool BatchedBidirectionalBfs::expand_level(int lane, int side_index) {
  const Graph& graph = *graph_;
  const auto l = static_cast<std::size_t>(lane);
  SideState& side = sides_[side_index];
  const int other_index = side_index ^ 1;

  const std::uint32_t level = side.completed_levels;
  const std::uint32_t begin = side.level_starts[level];
  const std::uint32_t end = static_cast<std::uint32_t>(side.order.size());
  side.level_starts.push_back(end);  // level + 1 starts here

  VisitRecord* visit = visit_.data();
  double* sigma = side.sigma.data();
  const std::uint32_t gen = generation_;

  // Intersection check folded into discovery: the balls were disjoint
  // before this expansion, so any intersection vertex is freshly
  // discovered, and the fused record already in hand answers the
  // other-side probe — no separate scan over the new level. The minimum
  // over the fresh set is order-independent, so `best` matches the scalar
  // kernel's post-expansion scan exactly.
  std::uint32_t best = kUnreachable;
  std::uint64_t scanned = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vertex u = side.order[i];
    const double sigma_u = sigma[u];
    const std::span<const Vertex> nbrs = graph.neighbors(u);
    scanned += nbrs.size();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (j + kPrefetchAhead < nbrs.size()) {
        const auto p = static_cast<std::size_t>(nbrs[j + kPrefetchAhead]);
        DISTBC_PREFETCH_W(&visit[p]);
        DISTBC_PREFETCH_W(&sigma[p]);
      }
      const Vertex w = nbrs[j];
      VisitRecord& r = visit[w];
      if (r.side[side_index].stamp == gen) {
        // Already discovered by this side; accumulate counts if w sits on
        // the next level (another shortest path into w).
        if (r.side[side_index].dist == level + 1) sigma[w] += sigma_u;
        continue;
      }
      r.side[side_index].stamp = gen;
      r.side[side_index].dist = level + 1;
      sigma[w] = sigma_u;
      side.order.push_back(w);
      if (r.side[other_index].stamp == gen)
        best = std::min(best, level + 1 + r.side[other_index].dist);
    }
  }
  side.completed_levels = level + 1;
  side.volume_valid = false;  // the frontier just advanced one level
  touched_[l] += scanned;

  if (best == kUnreachable) return false;
  results_[l].connected = true;
  results_[l].distance = best;
  return true;
}

bool BatchedBidirectionalBfs::step_lane(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  SideState& sl = sides_[kS];
  SideState& tl = sides_[kT];
  const bool s_alive = sl.level_starts[sl.completed_levels] < sl.order.size();
  const bool t_alive = tl.level_starts[tl.completed_levels] < tl.order.size();
  if (!s_alive || !t_alive) {
    // One ball covers its whole component without meeting the other.
    results_[l] = {};
    return true;
  }
  // Scalar-identical side selection (same uint64 degree sums, so the
  // comparison sequence matches exactly), with each side's volume cached
  // until that side next expands — the scalar kernel rescans the losing
  // side's unchanged frontier again every round.
  auto frontier_volume = [&](SideState& side) {
    if (!side.volume_valid) {
      std::uint64_t volume = 0;
      const std::uint32_t begin = side.level_starts[side.completed_levels];
      for (std::uint32_t i = begin; i < side.order.size(); ++i)
        volume += graph_->degree(side.order[i]);
      side.frontier_volume = volume;
      side.volume_valid = true;
    }
    return side.frontier_volume;
  };
  const bool grow_s = frontier_volume(sl) <= frontier_volume(tl);
  if (!expand_level(lane, grow_s ? kS : kT)) return false;
  collect_meeting_set(lane);
  return true;
}

void BatchedBidirectionalBfs::collect_meeting_set(int lane) {
  const auto l = static_cast<std::size_t>(lane);
  const SideState& sl = sides_[kS];
  const SideState& tl = sides_[kT];
  const std::uint32_t distance = results_[l].distance;
  const std::uint32_t level_s = sl.completed_levels;
  const std::uint32_t level_t = tl.completed_levels;
  DISTBC_ASSERT(distance <= level_s + level_t);

  const std::uint32_t lo = distance > level_t ? distance - level_t : 0;
  const std::uint32_t hi = std::min(level_s, distance);
  DISTBC_ASSERT(lo <= hi);
  const std::uint32_t meet = std::clamp((distance + 1) / 2, lo, hi);
  meet_level_[l] = meet;

  const std::uint32_t begin = sl.level_starts[meet];
  const std::uint32_t end = meet + 1 <= sl.completed_levels
                                ? sl.level_starts[meet + 1]
                                : static_cast<std::uint32_t>(sl.order.size());
  double num_paths = 0.0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vertex v = sl.order[i];
    const VisitRecord& r = visit_[v];
    if (r.side[kT].stamp != generation_) continue;
    if (r.side[kT].dist != distance - meet) continue;
    meeting_vertices_[l].push_back(v);
    meeting_weights_[l].push_back(sl.sigma[v] * tl.sigma[v]);
    num_paths += meeting_weights_[l].back();
  }
  DISTBC_ASSERT_MSG(!meeting_vertices_[l].empty(),
                    "connected pair must have a meeting vertex");
  results_[l].num_paths = num_paths;
}

void BatchedBidirectionalBfs::walk_to_root(int side_index, Vertex v, Rng& rng,
                                           std::vector<Vertex>& out) const {
  const SideState& side = sides_[side_index];
  std::uint32_t depth = visit_[v].side[side_index].dist;
  Vertex current = v;
  // Reservoir-style predecessor pick, one RNG draw per candidate — the
  // scalar kernel's exact draw sequence.
  while (depth > 0) {
    double total = 0.0;
    Vertex choice = kInvalidVertex;
    for (const Vertex w : graph_->neighbors(current)) {
      const VisitRecord& r = visit_[w];
      if (r.side[side_index].stamp != generation_ || r.side[side_index].dist != depth - 1)
        continue;
      total += side.sigma[w];
      if (rng.next_double() * total < side.sigma[w]) choice = w;
    }
    DISTBC_ASSERT_MSG(choice != kInvalidVertex,
                      "BFS predecessor must exist above the root");
    --depth;
    current = choice;
    if (depth > 0) out.push_back(current);  // exclude the root itself
  }
}

void BatchedBidirectionalBfs::sample_path(int lane, Rng& rng,
                                          std::vector<Vertex>& out) {
  const auto l = static_cast<std::size_t>(lane);
  DISTBC_DEBUG_ASSERT(lane >= 0 && lane < staged_ && ran_);
  ensure_ran(lane);
  DISTBC_ASSERT_MSG(lane == last_run_,
                    "sample_path(lane) requires lane state to be current: "
                    "finish lanes in ascending order");
  DISTBC_ASSERT_MSG(results_[l].connected,
                    "sample_path requires a connected pair");
  const std::size_t pick = pick_weighted(rng, meeting_weights_[l].data(),
                                         meeting_weights_[l].size());
  const Vertex v = meeting_vertices_[l][pick];

  // Prefix: interior vertices from s to v, in s -> v order.
  const std::size_t prefix_begin = out.size();
  walk_to_root(kS, v, rng, out);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(prefix_begin),
               out.end());
  if (v != s_[l] && v != t_[l]) out.push_back(v);
  // Suffix: interior vertices from v to t, already in v -> t order.
  walk_to_root(kT, v, rng, out);
}

}  // namespace distbc::graph
