#include "dynamic/incremental_bc.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "bc/result.hpp"
#include "graph/diameter.hpp"
#include "support/assert.hpp"

namespace distbc::dynamic {

void IncrementalBc::Recorder::on_sample(graph::Vertex s, graph::Vertex t,
                                        bool connected,
                                        std::span<const graph::Vertex> path) {
  if (replace_index < 0) {
    ledger->record(s, t, connected, path);
  } else {
    // Same stream, same pair: only the path and distance change.
    DISTBC_DEBUG_ASSERT(ledger->source(replace_index) == s &&
                        ledger->target(replace_index) == t);
    ledger->replace(static_cast<std::size_t>(replace_index), connected, path);
  }
}

IncrementalBc::IncrementalBc(bc::KadabraParams params) : params_(params) {}

void IncrementalBc::sample_one(std::uint64_t stream, std::int64_t slot,
                               epoch::SparseFrame& frame, bool record) {
  bc::PathSampler sampler(*graph_, Rng(params_.seed).split(stream), kernel_);
  Recorder recorder;
  if (record) {
    recorder.ledger = &ledger_;
    recorder.replace_index = slot;
    sampler.set_observer(&recorder);
  }
  sampler.sample(frame);
  if (!record) return;
  ++draws_;
  draw_arcs_ += kernel_->last_touched();
}

void IncrementalBc::sample_fresh(std::uint64_t count,
                                 epoch::SparseFrame& frame, bool record) {
  for (; count > 0; --count) {
    DISTBC_DEBUG_ASSERT(!record ||
                        next_stream_ == ledger_stream_ + ledger_.size());
    sample_one(next_stream_++, -1, frame, record);
  }
}

void IncrementalBc::resample_slots(std::span<const std::uint32_t> slots) {
  for (const std::uint32_t slot : slots)
    sample_one(ledger_stream_ + slot, slot, aggregate_, /*record=*/true);
}

std::uint64_t IncrementalBc::adaptive_loop() {
  std::uint64_t taken = 0;
  while (!context_.stop_satisfied(aggregate_)) {
    const std::uint64_t tau = aggregate_.tau();
    // First epoch: a fixed slice of the budget so easy instances check the
    // stop rule early; afterwards geometric doubling (epoch = current tau),
    // always capped at the remaining omega budget.
    std::uint64_t epoch =
        tau == 0 ? std::max<std::uint64_t>(64, context_.omega / 8) : tau;
    epoch = std::min(epoch, context_.omega - tau);
    DISTBC_ASSERT(epoch > 0);
    sample_fresh(epoch, aggregate_, /*record=*/true);
    taken += epoch;
    ++epochs_;
  }
  return taken;
}

void IncrementalBc::run(std::shared_ptr<const graph::Graph> graph) {
  DISTBC_ASSERT(graph != nullptr);
  graph_ = std::move(graph);
  kernel_ = std::make_shared<graph::BidirectionalBfs>(graph_->num_vertices());
  ledger_.clear();
  draws_ = 0;
  draw_arcs_ = 0;
  epochs_ = 0;
  const graph::VertexDiameterBound bound =
      bc::kadabra_vertex_diameter(*graph_, params_);
  vertex_diameter_ = bound.value;
  diameter_bfs_ = bound.num_bfs;
  context_ = bc::begin_context(params_, vertex_diameter_);
  aggregate_ = epoch::SparseFrame(graph_->num_vertices());
  // Phase 2: non-adaptive calibration samples feed only the stopping
  // radii - not the estimator, so no ledger records.
  epoch::SparseFrame calibration_frame(graph_->num_vertices());
  sample_fresh(context_.initial_samples, calibration_frame, /*record=*/false);
  bc::finish_calibration(context_, calibration_frame);
  // Phase 3: adaptive epochs, every sample recorded in the ledger.
  ledger_stream_ = next_stream_;
  (void)adaptive_loop();
  ran_ = true;
}

IncrementalBc::RefreshStats IncrementalBc::refresh(
    std::shared_ptr<const graph::Graph> graph, const EdgeBatch& batch,
    std::uint32_t diameter_bound) {
  DISTBC_ASSERT_MSG(ran_, "refresh requires a previous run()");
  DISTBC_ASSERT(graph != nullptr);
  RefreshStats stats;

  // The exact test pays while its BFS runs cost no more than redrawing
  // the whole ledger. Costs count visited vertices and adjacency entries:
  // a classify() BFS costs n + arcs; a redraw costs the mean adjacency
  // entries this engine's draws scanned plus kDrawOverhead for its setup,
  // path draw and ledger write. Measured on BA 3.5k/2 and 5k/2 (4-core
  // Xeon): a full redraw takes 2.0-2.2 us per sample and scans 190-270
  // entries, a BFS visit takes 4-6 ns, so one redraw costs ~350-500
  // visits. The test's O(ledger x batch edges) comparisons are cheaper
  // than either side. graph_ still holds the old snapshot, for the
  // deleted edges' BFS runs.
  constexpr double kDrawOverhead = 256;
  const double mean_draw_arcs =
      static_cast<double>(draw_arcs_) /
      static_cast<double>(std::max<std::uint64_t>(draws_, 1));
  const double redraw_cost =
      static_cast<double>(ledger_.size()) * (kDrawOverhead + mean_draw_arcs);
  std::vector<std::uint32_t> dirty;
  if (auto exact = ledger_.classify(*graph_, *graph, batch, redraw_cost)) {
    dirty = std::move(*exact);
  } else {
    dirty.resize(ledger_.size());
    std::iota(dirty.begin(), dirty.end(), 0u);
    stats.full_redraw = true;
  }
  stats.dirty = dirty.size();
  stats.retained = ledger_.size() - dirty.size();

  // Subtract every dirty sample's contribution: its path counts and its
  // tau share (disconnected records contributed tau only).
  for (const std::uint32_t index : dirty)
    aggregate_.unrecord(ledger_.path(index));

  DISTBC_ASSERT(graph->num_vertices() == graph_->num_vertices());
  graph_ = std::move(graph);
  resample_slots(dirty);
  stats.resampled = dirty.size();

  // Calibration-bound policy: 0 asserts the cached bound still covers the
  // new graph (insert-only batches). omega reads the bound only through
  // its omega bucket, so a larger bound in the cached bucket just raises
  // the cached value; only a bound in a HIGHER bucket re-derives omega and
  // recalibrates - from the merged aggregate, no extra samples.
  if (diameter_bound > vertex_diameter_) {
    const bool bucket_grew = graph::omega_bucket(diameter_bound) >
                             graph::omega_bucket(vertex_diameter_);
    vertex_diameter_ = diameter_bound;
    context_.vertex_diameter = diameter_bound;
    if (bucket_grew) {
      bc::KadabraContext fresh = bc::begin_context(params_, diameter_bound);
      bc::finish_calibration(fresh, aggregate_);
      context_ = fresh;
      stats.recalibrated = true;
    }
  }

  // The merged aggregate must still satisfy the stop rule under the
  // (possibly regrown) omega; top up with regular adaptive epochs if not.
  const std::uint32_t epochs_before = epochs_;
  stats.topup = adaptive_loop();
  stats.epochs = epochs_ - epochs_before;
  return stats;
}

std::vector<double> IncrementalBc::scores() const {
  DISTBC_ASSERT(ran_ && aggregate_.tau() > 0);
  std::vector<double> result;
  bc::scores_from_frame(aggregate_, result);
  return result;
}

}  // namespace distbc::dynamic
