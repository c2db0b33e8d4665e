// dynamic::IncrementalBc - a single-threaded KADABRA engine that keeps its
// sample set alive across edge batches instead of recomputing from scratch.
//
// A fresh run() executes the standard three phases (vertex diameter ->
// omega, calibration, adaptive epochs), drawing every sample on its OWN
// deterministic RNG stream (`Rng(params.seed).split(stream)`, one monotone
// stream counter across the calibration and adaptive phases) and
// recording a SampleLedger record (pair, distance, path) per adaptive
// sample; ledger slot i was drawn on stream ledger_stream_ + i.
//
// refresh(graph, batch, bound) is the incremental path:
//   1. mark dirty exactly the samples whose shortest-path set the batch
//      changed (SampleLedger::classify: one BFS per distinct batch
//      endpoint, old snapshot for deletes, new one for inserts), or every
//      sample when those BFS runs would cost more than redrawing the
//      whole ledger;
//   2. subtract the dirty samples' contributions from the aggregate frame
//      (their paths and tau shares), keeping every clean contribution;
//   3. redraw every dirty slot on its OWN stream against the new
//      snapshot: the same (s, t) pair, a fresh shortest path on the new
//      graph (the pair-preserving update of Bergamini & Meyerhenke, ESA
//      2015). Redrawing on a new stream would draw a new pair, leaving the
//      kept samples uniform only among pairs the batch did not touch, and
//      bias the estimate away from the churned region;
//   4. when the batch's bound lies in a higher omega bucket than the
//      cached one, re-derive omega and recalibrate the stopping radii from
//      the merged post-resample aggregate - no extra samples;
//   5. re-evaluate the adaptive stop rule on the merged aggregate and top
//      up with further epochs if it no longer holds.
//
// The contract is STATISTICAL, not bitwise: after refresh the estimator is
// an average over exactly ledger().size() samples, each drawn uniformly
// on the graph version it is valid for, and the KADABRA stop rule holds on
// the merged aggregate under the (possibly recalibrated) omega. Two
// identical run()+refresh() sequences are bitwise identical to each other
// (deterministic streams); a refresh is NOT bitwise identical to a
// from-scratch run on the same snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bc/kadabra_context.hpp"
#include "bc/sampler.hpp"
#include "dynamic/edge_batch.hpp"
#include "dynamic/sample_ledger.hpp"
#include "epoch/state_frame.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/graph.hpp"

namespace distbc::dynamic {

class IncrementalBc {
 public:
  explicit IncrementalBc(bc::KadabraParams params);

  /// From-scratch run on `graph` (must be connected): phases 1-3, ledger
  /// rebuilt. Resets any previous state except the stream counter (streams
  /// are never reused within one engine lifetime).
  void run(std::shared_ptr<const graph::Graph> graph);

  struct RefreshStats {
    std::uint64_t retained = 0;   // clean samples kept
    std::uint64_t dirty = 0;      // samples invalidated by the batch
    std::uint64_t resampled = 0;  // == dirty (same slots, same streams)
    std::uint64_t topup = 0;      // extra samples from re-running the stop rule
    std::uint32_t epochs = 0;     // top-up epochs executed
    bool recalibrated = false;    // omega/stopping radii re-derived
    bool full_redraw = false;     // the exact test cost more: all dirty
  };

  /// Incremental refresh after `batch` produced snapshot `graph`.
  /// `diameter_bound` is the caller's vertex-diameter bound for the NEW
  /// graph (in the exact value's omega bucket or above), or 0 to assert the
  /// cached bound still holds (insert-only batches: distances only
  /// shrink). Requires a previous run().
  RefreshStats refresh(std::shared_ptr<const graph::Graph> graph,
                       const EdgeBatch& batch, std::uint32_t diameter_bound);

  [[nodiscard]] bool ran() const { return ran_; }
  /// Betweenness estimates: count(v) / tau over the current aggregate.
  [[nodiscard]] std::vector<double> scores() const;
  /// Samples in the current estimator (== ledger().size()).
  [[nodiscard]] std::uint64_t samples() const { return aggregate_.tau(); }
  /// Adaptive epochs executed across run() and every refresh().
  [[nodiscard]] std::uint32_t epochs() const { return epochs_; }
  [[nodiscard]] const bc::KadabraContext& context() const { return context_; }
  [[nodiscard]] const SampleLedger& ledger() const { return ledger_; }
  [[nodiscard]] const bc::KadabraParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t vertex_diameter() const {
    return vertex_diameter_;
  }
  /// Eccentricities the last run()'s phase 1 computed.
  [[nodiscard]] std::uint64_t diameter_bfs() const { return diameter_bfs_; }
  /// Next unused RNG stream index (monotone across phases and refreshes;
  /// resamples reuse their slot's stream, top-ups take new ones).
  [[nodiscard]] std::uint64_t next_stream() const { return next_stream_; }

 private:
  /// SampleObserver adapter: routes each finished sample into the ledger,
  /// either appending or replacing a dirty slot.
  struct Recorder final : bc::SampleObserver {
    SampleLedger* ledger = nullptr;
    std::int64_t replace_index = -1;  // < 0 = append
    void on_sample(graph::Vertex s, graph::Vertex t, bool connected,
                   std::span<const graph::Vertex> path) override;
  };

  /// One sample on stream `stream`, drawn with the engine's kernel into
  /// `frame`. `slot` >= 0 replaces that ledger slot, < 0 appends; `record`
  /// false skips the ledger entirely (calibration samples).
  void sample_one(std::uint64_t stream, std::int64_t slot,
                  epoch::StateFrame& frame, bool record);
  /// `count` fresh samples on fresh streams, appended to the ledger when
  /// `record` is set.
  void sample_fresh(std::uint64_t count, epoch::StateFrame& frame,
                    bool record);
  /// Redraws the given ledger slots, each on its own stream, into
  /// aggregate_.
  void resample_slots(std::span<const std::uint32_t> slots);
  /// Adaptive epochs until the stop rule holds on aggregate_; returns the
  /// samples taken.
  std::uint64_t adaptive_loop();

  bc::KadabraParams params_;

  std::shared_ptr<const graph::Graph> graph_;
  // One traversal workspace for every draw; batches keep the vertex set,
  // so it serves every snapshot.
  std::shared_ptr<graph::BidirectionalBfs> kernel_;
  bc::KadabraContext context_;
  epoch::StateFrame aggregate_;
  SampleLedger ledger_;
  std::uint32_t vertex_diameter_ = 0;
  std::uint64_t diameter_bfs_ = 0;
  std::uint64_t next_stream_ = 0;
  std::uint64_t ledger_stream_ = 0;  // stream of ledger slot 0
  // Ledger draws made and adjacency entries their searches scanned: the
  // measured cost of one redraw (refresh(), step 1).
  std::uint64_t draws_ = 0;
  std::uint64_t draw_arcs_ = 0;
  std::uint32_t epochs_ = 0;
  bool ran_ = false;
};

}  // namespace distbc::dynamic
