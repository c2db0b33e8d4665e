// Batched per-stream path sampler over graph::BatchedBidirectionalBfs.
//
// A BatchSampler is the batched drop-in for PathSampler: one instance per
// RNG stream, drawing pairs and path choices from that stream in exactly
// the scalar order. Batching happens through a (possibly shared) traversal
// kernel in two shapes:
//
//   * Across streams (deterministic mode): every stream of a physical
//     thread holds the SAME kernel; the engine posts one pair per stream
//     (post_sample), runs the batch once (flush_staged), then finishes in
//     stream order (finish_sample). Each stream's RNG sequence — pair,
//     then path draws — is untouched, so deterministic aggregates are
//     bitwise identical to scalar sampling for every batch size.
//   * Within a stream (free-running mode): sample_batch() draws up to
//     capacity pairs ahead, runs them as one batch and records in lane
//     order. Statistically equivalent, not draw-order identical — exactly
//     the modes' existing contract.
//
// sample() (the scalar protocol) stages, runs and finishes a single lane:
// with a drained kernel it is bitwise identical to PathSampler::sample.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "graph/batched_bidirectional_bfs.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distbc::bc {

/// Per-sample tap on a BatchSampler: called once per finished sample,
/// right after the frame record. `s` and `t` are the drawn pair, `path`
/// the drawn path's interior vertices (empty for a disconnected or an
/// adjacent pair). dynamic::SampleLedger records its samples here.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void on_sample(graph::Vertex s, graph::Vertex t, bool connected,
                         std::span<const graph::Vertex> path) = 0;
};

class BatchSampler {
 public:
  /// Shares `kernel` with every other sampler of the owning thread; the
  /// caller guarantees single-threaded kernel use.
  BatchSampler(const graph::Graph& graph, Rng rng,
               std::shared_ptr<graph::BatchedBidirectionalBfs> kernel)
      : graph_(&graph), kernel_(std::move(kernel)), rng_(rng) {
    scratch_.reserve(64);
  }

  /// Convenience: a private kernel of width `batch`.
  BatchSampler(const graph::Graph& graph, Rng rng, int batch)
      : BatchSampler(graph, rng,
                     std::make_shared<graph::BatchedBidirectionalBfs>(
                         graph, batch)) {}

  [[nodiscard]] int batch_capacity() const { return kernel_->capacity(); }

  /// Installs (or clears, with nullptr) the per-sample observer. The
  /// observer must outlive every subsequent sample.
  void set_observer(SampleObserver* observer) { observer_ = observer; }

  /// Scalar protocol: one sample, recorded immediately. Bitwise identical
  /// to PathSampler::sample for the same stream.
  template <typename Frame>
  void sample(Frame& frame) {
    const bool posted = post_sample();
    DISTBC_ASSERT_MSG(posted, "sample() needs a drained kernel");
    flush_staged();
    finish_sample(frame);
  }

  /// Cross-stream protocol, step 1: draw this stream's next pair and stage
  /// it into the shared kernel. Returns false — consuming nothing — when
  /// the kernel batch is full; the caller must flush and finish the posted
  /// lanes first. At most one in-flight sample per stream.
  bool post_sample() {
    DISTBC_ASSERT_MSG(lane_ < 0, "one in-flight sample per stream");
    if (!kernel_->ran() && kernel_->staged() == kernel_->capacity())
      return false;
    const auto [s64, t64] = rng_.next_distinct_pair(graph_->num_vertices());
    lane_ = kernel_->stage(static_cast<graph::Vertex>(s64),
                           static_cast<graph::Vertex>(t64));
    DISTBC_ASSERT(lane_ >= 0);
    return true;
  }

  /// Cross-stream protocol, step 2: run the staged batch (no-op if some
  /// sharing stream already did).
  void flush_staged() {
    if (!kernel_->ran()) kernel_->run_staged();
  }

  /// Cross-stream protocol, step 3: finish this stream's posted sample —
  /// path draw from this stream's RNG, then the frame record.
  template <typename Frame>
  void finish_sample(Frame& frame) {
    DISTBC_ASSERT_MSG(lane_ >= 0 && kernel_->ran(),
                      "finish_sample needs a posted, flushed sample");
    ++taken_;
    const bool connected = kernel_->result(lane_).connected;
    scratch_.clear();
    if (connected) {
      kernel_->sample_path(lane_, rng_, scratch_);
      frame.record(scratch_);
    } else {
      frame.record_empty();
    }
    notify_observer(lane_, connected);
    lane_ = -1;
  }

  /// Within-stream batching: takes exactly `count` samples in kernel-wide
  /// chunks. Requires exclusive use of the kernel and no in-flight sample.
  template <typename Frame>
  void sample_batch(Frame& frame, std::uint64_t count) {
    DISTBC_ASSERT_MSG(lane_ < 0, "sample_batch with a sample in flight");
    const auto n = graph_->num_vertices();
    while (count > 0) {
      const int width = static_cast<int>(std::min<std::uint64_t>(
          count, static_cast<std::uint64_t>(kernel_->capacity())));
      for (int i = 0; i < width; ++i) {
        const auto [s64, t64] = rng_.next_distinct_pair(n);
        const int lane = kernel_->stage(static_cast<graph::Vertex>(s64),
                                        static_cast<graph::Vertex>(t64));
        DISTBC_ASSERT(lane == i);
      }
      kernel_->run_staged();
      for (int lane = 0; lane < width; ++lane) {
        ++taken_;
        const bool connected = kernel_->result(lane).connected;
        scratch_.clear();
        if (connected) {
          kernel_->sample_path(lane, rng_, scratch_);
          frame.record(scratch_);
        } else {
          frame.record_empty();
        }
        notify_observer(lane, connected);
      }
      count -= static_cast<std::uint64_t>(width);
    }
  }

  [[nodiscard]] std::uint64_t samples_taken() const { return taken_; }

 private:
  /// Observer tap for the lane just finished (scratch_ still holds its
  /// path).
  void notify_observer(int lane, bool connected) {
    if (observer_ == nullptr) return;
    const auto [s, t] = kernel_->lane_pair(lane);
    observer_->on_sample(s, t, connected, scratch_);
  }

  const graph::Graph* graph_;
  std::shared_ptr<graph::BatchedBidirectionalBfs> kernel_;
  Rng rng_;
  std::vector<graph::Vertex> scratch_;
  std::uint64_t taken_ = 0;
  int lane_ = -1;
  SampleObserver* observer_ = nullptr;
};

}  // namespace distbc::bc
