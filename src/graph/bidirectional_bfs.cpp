#include "graph/bidirectional_bfs.hpp"

#include <algorithm>
#include <span>

#include "graph/bfs.hpp"

#if (defined(__GNUC__) || defined(__clang__)) && !defined(DISTBC_NO_SW_PREFETCH)
#define DISTBC_PREFETCH_W(addr) __builtin_prefetch((addr), 1, 1)
#else
#define DISTBC_PREFETCH_W(addr) ((void)(addr))
#endif

namespace distbc::graph {

namespace {
/// Adjacency lookahead for the software prefetches: far enough to cover
/// one miss latency, near enough to stay inside typical hub lists.
constexpr std::size_t kPrefetchAhead = 8;
}  // namespace

BidirectionalBfs::BidirectionalBfs(Vertex num_vertices)
    : visit_(num_vertices, VisitRecord{}) {
  for (Side& side : sides_) {
    side.sigma.assign(num_vertices, 0.0);
    side.order.reserve(1024);
    side.level_starts.reserve(64);
  }
  meeting_vertices_.reserve(64);
  meeting_weights_.reserve(64);
}

void BidirectionalBfs::reset(Vertex s, Vertex t) {
  // One generation bump retires the previous search's visit records.
  ++generation_;
  if (generation_ == 0) {  // stamp wraparound: rare full clear
    std::fill(visit_.begin(), visit_.end(), VisitRecord{});
    generation_ = 1;
  }
  s_ = s;
  t_ = t;
  result_ = {};
  meeting_vertices_.clear();
  meeting_weights_.clear();
  touched_ = 0;

  const Vertex roots[2] = {s, t};
  for (int si = 0; si < 2; ++si) {
    Side& side = sides_[si];
    side.order.clear();
    side.level_starts.clear();
    side.completed_levels = 0;
    side.volume_valid = false;
    VisitRecord::PerSide& root = visit_[roots[si]].side[si];
    root.stamp = generation_;
    root.dist = 0;
    side.sigma[roots[si]] = 1.0;
    side.order.push_back(roots[si]);
    side.level_starts.push_back(0);
  }
}

bool BidirectionalBfs::expand_level(const Graph& graph, int side_index) {
  Side& side = sides_[side_index];
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
  // other-side probe. The minimum over the fresh set is order-independent.
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
  touched_ += scanned;

  if (best == kUnreachable) return false;
  result_.connected = true;
  result_.distance = best;
  return true;
}

BidirectionalBfs::PairResult BidirectionalBfs::run(const Graph& graph,
                                                   Vertex s, Vertex t) {
  DISTBC_ASSERT(s < graph.num_vertices() && t < graph.num_vertices());
  DISTBC_ASSERT(visit_.size() == graph.num_vertices());
  DISTBC_ASSERT_MSG(s != t, "betweenness pairs must be distinct");
  reset(s, t);

  // A side's frontier only changes when that side expands, so its volume
  // is cached until then.
  auto frontier_volume = [&](Side& side) {
    if (!side.volume_valid) {
      std::uint64_t volume = 0;
      const std::uint32_t begin = side.level_starts[side.completed_levels];
      for (std::uint32_t i = begin; i < side.order.size(); ++i)
        volume += graph.degree(side.order[i]);
      side.frontier_volume = volume;
      side.volume_valid = true;
    }
    return side.frontier_volume;
  };

  Side& s_side = sides_[kS];
  Side& t_side = sides_[kT];
  while (true) {
    const bool s_alive =
        s_side.level_starts[s_side.completed_levels] < s_side.order.size();
    const bool t_alive =
        t_side.level_starts[t_side.completed_levels] < t_side.order.size();
    if (!s_alive || !t_alive) {
      // One ball covers its whole component without meeting the other:
      // s and t are disconnected.
      return {};
    }
    const bool grow_s = frontier_volume(s_side) <= frontier_volume(t_side);
    if (expand_level(graph, grow_s ? kS : kT)) break;
  }

  collect_meeting_set();
  return result_;
}

void BidirectionalBfs::collect_meeting_set() {
  const Side& s_side = sides_[kS];
  const Side& t_side = sides_[kT];
  const std::uint32_t distance = result_.distance;
  const std::uint32_t level_s = s_side.completed_levels;
  const std::uint32_t level_t = t_side.completed_levels;
  DISTBC_ASSERT(distance <= level_s + level_t);

  // Any m with L - level_t <= m <= level_s (clamped to [0, L]) works; both
  // sides have final sigma values up to their completed level. Prefer the
  // midpoint to keep the meeting set small.
  const std::uint32_t lo = distance > level_t ? distance - level_t : 0;
  const std::uint32_t hi = std::min(level_s, distance);
  DISTBC_ASSERT(lo <= hi);
  const std::uint32_t meet = std::clamp((distance + 1) / 2, lo, hi);

  const std::uint32_t begin = s_side.level_starts[meet];
  const std::uint32_t end =
      meet + 1 <= s_side.completed_levels
          ? s_side.level_starts[meet + 1]
          : static_cast<std::uint32_t>(s_side.order.size());
  double num_paths = 0.0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const Vertex v = s_side.order[i];
    const VisitRecord& r = visit_[v];
    if (r.side[kT].stamp != generation_) continue;
    if (r.side[kT].dist != distance - meet) continue;
    meeting_vertices_.push_back(v);
    meeting_weights_.push_back(s_side.sigma[v] * t_side.sigma[v]);
    num_paths += meeting_weights_.back();
  }
  DISTBC_ASSERT_MSG(!meeting_vertices_.empty(),
                    "connected pair must have a meeting vertex");
  result_.num_paths = num_paths;
}

void BidirectionalBfs::walk_to_root(const Graph& graph, int side_index,
                                    Vertex v, Rng& rng,
                                    std::vector<Vertex>& out) const {
  const Side& side = sides_[side_index];
  std::uint32_t depth = visit_[v].side[side_index].dist;
  Vertex current = v;
  // Reservoir-style predecessor pick: a predecessor u (at depth - 1) is the
  // previous hop of a uniform path with probability sigma(u) / sum(sigma).
  while (depth > 0) {
    double total = 0.0;
    Vertex choice = kInvalidVertex;
    for (const Vertex w : graph.neighbors(current)) {
      const VisitRecord::PerSide& r = visit_[w].side[side_index];
      if (r.stamp != generation_ || r.dist != depth - 1) continue;
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

void BidirectionalBfs::sample_path(const Graph& graph, Rng& rng,
                                   std::vector<Vertex>& out) {
  DISTBC_ASSERT_MSG(result_.connected,
                    "sample_path requires a connected pair");
  const std::size_t pick =
      pick_weighted(rng, meeting_weights_.data(), meeting_weights_.size());
  const Vertex v = meeting_vertices_[pick];

  // Prefix: interior vertices from s to v, in s -> v order.
  const std::size_t prefix_begin = out.size();
  walk_to_root(graph, kS, v, rng, out);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(prefix_begin),
               out.end());
  if (v != s_ && v != t_) out.push_back(v);
  // Suffix: interior vertices from v to t, already in v -> t order.
  walk_to_root(graph, kT, v, rng, out);
}

}  // namespace distbc::graph
