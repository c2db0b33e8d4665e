// dynamic::SampleLedger - the per-sample record that lets an edge batch
// invalidate exactly the samples whose shortest-path set it changed.
//
// Every adaptive-phase sample is one sampled shortest path between a
// random pair (s, t). The ledger stores, per sample, only s, t, the
// distance d = d(s, t) (the path's interior vertex count plus 1, or
// kUnreachable for a disconnected pair) and the drawn path's interior
// vertices (to subtract its contribution from the aggregate).
//
// classify() is the exact distance test of Hayashi, Akiba & Yoshida (VLDB
// 2015) and Bergamini & Meyerhenke (ESA 2015): one BFS per distinct
// endpoint of a deleted edge on the OLD snapshot, one per distinct
// endpoint of an inserted edge on the NEW snapshot, and a sample is dirty
// iff some batch edge (u, v) gives
//
//   d(s,u) + 1 + d(v,t) <= d   in either orientation,
//
// with the distances of the graph that holds the edge. That is exactly
// "some deleted edge lies on an old shortest s-t path, or some inserted
// edge lies on a new one", which holds iff the s-t shortest-path set
// changed: if neither holds, every old shortest path survives (so
// d' <= d) and every new one already existed (so d <= d'), hence the sets
// coincide. The insert test compares against the OLD d; when a mixed
// batch lengthens the pair, some deleted edge lay on an old shortest path
// and the delete test already fired.
//
// The test needs no history: a kept sample's pair has the same distance
// and the same shortest paths on the new graph, so its record is exactly
// what a fresh draw there would have stored, and the next batch tests it
// the same way.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dynamic/edge_batch.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

class SampleLedger {
 public:
  void clear() { records_.clear(); }

  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Appends the record of a freshly drawn sample of pair (s, t). `path`
  /// holds the drawn path's interior vertices (empty for a disconnected
  /// pair).
  void record(graph::Vertex s, graph::Vertex t, bool connected,
              std::span<const graph::Vertex> path);

  /// Replaces record `index`'s path and distance in place - the resample
  /// path: a dirty slot keeps its position and its pair.
  void replace(std::size_t index, bool connected,
               std::span<const graph::Vertex> path);

  [[nodiscard]] std::span<const graph::Vertex> path(std::size_t index) const {
    return records_[index].path;
  }
  [[nodiscard]] graph::Vertex source(std::size_t index) const {
    return records_[index].s;
  }
  [[nodiscard]] graph::Vertex target(std::size_t index) const {
    return records_[index].t;
  }
  /// d(s, t) on the graph the record is valid for; kUnreachable when the
  /// pair was disconnected.
  [[nodiscard]] std::uint32_t distance(std::size_t index) const {
    return records_[index].distance;
  }

  /// Dirty record indices, ascending: the records whose shortest-path set
  /// `batch` changes when it turns `before` into `after` (file comment).
  /// nullopt, before any BFS, when the BFS runs would cost more than
  /// `budget`; each run costs `after`'s num_vertices + num_arcs.
  [[nodiscard]] std::optional<std::vector<std::uint32_t>> classify(
      const graph::Graph& before, const graph::Graph& after,
      const EdgeBatch& batch, double budget);

 private:
  struct Record {
    graph::Vertex s = 0;
    graph::Vertex t = 0;
    std::uint32_t distance = 0;
    std::vector<graph::Vertex> path;  // interior vertices, draw order
  };

  std::vector<Record> records_;

  // classify() workspace, reused across calls: the distinct endpoints of
  // the deletes, then of the inserts; one num_vertices row of distances
  // per endpoint, in that order; the BFS queue.
  std::vector<graph::Vertex> deleted_ends_;
  std::vector<graph::Vertex> inserted_ends_;
  std::vector<std::uint32_t> rows_;
  std::vector<graph::Vertex> queue_;
};

}  // namespace distbc::dynamic
