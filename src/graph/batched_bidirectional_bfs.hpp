// Batched multi-source bidirectional BFS: up to kMaxBatch staged (s, t)
// searches executed as one batch over the shared CSR.
//
// Each lane runs exactly the algorithm of BidirectionalBfs — same frontier
// discovery order, same sigma arithmetic, same volume-balanced side
// selection, same meeting-level tiling — so per lane the results and every
// subsequent sample_path() draw are bitwise identical to the scalar kernel.
// The speedup comes from a leaner memory layout, not from sharing work
// between lanes: the scalar kernel touches four scattered per-vertex
// arrays on every discovery (own stamp, own dist, own sigma, and the other
// side's stamp for the intersection scan), while here the stamps and
// distances of BOTH sides fuse into one 16-byte per-vertex record and the
// intersection probe folds into the discovery branch — one cache line
// answers the membership test, the same-level sigma check, and the
// cross-side meet check.
//
// All lanes share ONE scalar-sized workspace (measured: separate per-lane
// slabs rotate the working set out of the near caches and lockstep
// level-interleaving shares nothing, because balanced bidirectional
// expansions barely overlap). Lanes therefore execute lazily, in staging
// order: a lane's search runs when its result is first read, and its
// traversal state stays valid — sample_path() usable — until the next
// lane's result is read. bc::BatchSampler finishes lanes strictly in
// stream order, which is exactly this discipline.
//
// The staging protocol exists so a caller can interleave lanes from
// different RNG streams: stage() up to capacity() pairs, run_staged(),
// then read result()/sample_path() lane by lane, ascending. The first
// stage() after a run opens a fresh batch and invalidates all previous
// lanes.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/bidirectional_bfs.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distbc::graph {

class BatchedBidirectionalBfs {
 public:
  /// Bound on the staging window; keeps per-lane result storage small.
  static constexpr int kMaxBatch = 64;

  using PairResult = BidirectionalBfs::PairResult;

  /// Workspace sizes as num_vertices (shared by all lanes); the graph
  /// reference must outlive the kernel.
  BatchedBidirectionalBfs(const Graph& graph, int capacity);

  [[nodiscard]] int capacity() const { return capacity_; }
  /// Lanes staged into the current batch.
  [[nodiscard]] int staged() const { return staged_; }
  /// True once run_staged() sealed the current batch.
  [[nodiscard]] bool ran() const { return ran_; }

  /// Stages one pair (s != t) into the next batch and returns its lane, or
  /// -1 when the batch is full (nothing is modified). The first stage()
  /// after run_staged() clears the previous batch.
  int stage(Vertex s, Vertex t);

  /// Seals the batch: staged lanes become readable via result() /
  /// sample_path(), in ascending lane order.
  void run_staged();

  /// Convenience: stage + seal a whole batch (pairs.size() <= capacity()).
  void run(std::span<const std::pair<Vertex, Vertex>> pairs);

  /// Lane result; bitwise identical to BidirectionalBfs::run on the same
  /// pair. Reading lane k executes searches up through k, invalidating
  /// sample_path() for lanes before k.
  [[nodiscard]] const PairResult& result(int lane) {
    DISTBC_DEBUG_ASSERT(lane >= 0 && lane < staged_ && ran_);
    ensure_ran(lane);
    return results_[static_cast<std::size_t>(lane)];
  }

  /// Draws a uniformly random shortest path of lane `lane`, appending its
  /// internal vertices to `out`; consumes exactly the RNG draws the scalar
  /// kernel's sample_path() would. Requires result(lane).connected, and
  /// that no later lane's result has been read yet.
  void sample_path(int lane, Rng& rng, std::vector<Vertex>& out);

  /// The (s, t) pair staged into lane `lane`.
  [[nodiscard]] std::pair<Vertex, Vertex> lane_pair(int lane) const {
    DISTBC_DEBUG_ASSERT(lane >= 0 && lane < staged_);
    const auto l = static_cast<std::size_t>(lane);
    return {s_[l], t_[l]};
  }

  /// Vertices touched by lane `lane` (both sides) — equals the scalar
  /// kernel's last_touched() for the same pair.
  [[nodiscard]] std::uint64_t lane_touched(int lane) {
    DISTBC_DEBUG_ASSERT(lane >= 0 && lane < staged_ && ran_);
    ensure_ran(lane);
    return touched_[static_cast<std::size_t>(lane)];
  }

 private:
  /// Fused per-vertex record: generation stamps and BFS distances of both
  /// sides share one 16-byte slot, so membership, same-level, and
  /// cross-side intersection checks all read one cache line. Each side's
  /// stamp and dist are adjacent so a discovery writes them as one
  /// 8-byte store.
  struct VisitRecord {
    struct PerSide {
      std::uint32_t stamp;
      std::uint32_t dist;
    };
    PerSide side[2];
  };

  /// Traversal state of one side of the currently running lane. Discovery
  /// order must be preserved: sigma accumulation and meeting-set iteration
  /// follow it, and double addition is order-sensitive.
  struct SideState {
    std::vector<double> sigma;  // [v]
    std::vector<Vertex> order;
    std::vector<std::uint32_t> level_starts;
    std::uint32_t completed_levels = 0;
    /// Degree sum of the current frontier, cached between rounds: the
    /// scalar kernel rescans both frontiers every round, but a side's
    /// frontier only changes when that side expands. Same uint64 sum,
    /// so side selection stays bitwise identical.
    std::uint64_t frontier_volume = 0;
    bool volume_valid = false;
  };

  static constexpr int kS = 0;
  static constexpr int kT = 1;

  void clear_batch();
  /// Runs staged searches up through `lane` (they are independent; shared
  /// workspace forces ascending execution).
  void ensure_ran(int lane) {
    while (last_run_ < lane) run_lane(++last_run_);
  }
  void run_lane(int lane);
  /// One scalar-loop iteration; true when the search finished (met, or
  /// proved disconnected).
  bool step_lane(int lane);
  bool expand_level(int lane, int side_index);
  void collect_meeting_set(int lane);
  void walk_to_root(int side_index, Vertex v, Rng& rng,
                    std::vector<Vertex>& out) const;

  const Graph* graph_;
  int capacity_;
  int staged_ = 0;
  bool ran_ = false;
  int last_run_ = -1;  // highest lane whose search has executed
  std::uint32_t generation_ = 0;

  // Shared traversal workspace (scalar-sized, reused by every lane).
  std::vector<VisitRecord> visit_;  // [v], both sides
  SideState sides_[2];

  // Per-lane inputs and outputs (small; survive workspace reuse).
  std::vector<Vertex> s_;
  std::vector<Vertex> t_;
  std::vector<PairResult> results_;
  std::vector<std::uint32_t> meet_level_;
  std::vector<std::vector<Vertex>> meeting_vertices_;
  std::vector<std::vector<double>> meeting_weights_;
  std::vector<std::uint64_t> touched_;
};

}  // namespace distbc::graph
