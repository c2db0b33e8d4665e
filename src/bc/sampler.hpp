// Per-stream path sampler: one KADABRA sample = a uniform vertex pair plus
// a uniform shortest path between them, taken via bidirectional BFS.
// A sampler owns its RNG stream, so taking a sample involves no shared
// state between threads - the property the paper's scenario assumes ("a
// single sample can be taken locally"). The traversal workspace may be
// shared by several samplers of ONE thread (the engine's virtual streams
// on a physical thread): a sample runs to completion before the next one
// starts, so sharing changes no draw, only the memory footprint.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "epoch/state_frame.hpp"
#include "graph/bidirectional_bfs.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace distbc::bc {

/// Per-sample tap on a PathSampler: called once per sample, right after
/// the frame record. `s` and `t` are the drawn pair, `path` the drawn
/// path's interior vertices (empty for a disconnected or an adjacent
/// pair). dynamic::SampleLedger records its samples here.
class SampleObserver {
 public:
  virtual ~SampleObserver() = default;
  virtual void on_sample(graph::Vertex s, graph::Vertex t, bool connected,
                         std::span<const graph::Vertex> path) = 0;
};

class PathSampler {
 public:
  /// Shares `kernel` with other samplers of the owning thread; the caller
  /// guarantees single-threaded kernel use.
  PathSampler(const graph::Graph& graph, Rng rng,
              std::shared_ptr<graph::BidirectionalBfs> kernel)
      : graph_(&graph), kernel_(std::move(kernel)), rng_(rng) {}

  /// Convenience: a private kernel.
  PathSampler(const graph::Graph& graph, Rng rng)
      : PathSampler(graph, rng,
                    std::make_shared<graph::BidirectionalBfs>(
                        graph.num_vertices())) {}

  /// Installs (or clears, with nullptr) the per-sample observer. The
  /// observer must outlive every subsequent sample.
  void set_observer(SampleObserver* observer) { observer_ = observer; }

  /// Takes one sample and records it into `frame` - any frame offering the
  /// record()/record_empty() contract (StateFrame, SparseFrame), so the
  /// sampler is agnostic to the run's frame representation.
  template <typename Frame>
  void sample(Frame& frame) {
    const auto [s64, t64] = rng_.next_distinct_pair(graph_->num_vertices());
    const auto s = static_cast<graph::Vertex>(s64);
    const auto t = static_cast<graph::Vertex>(t64);
    const bool connected = kernel_->run(*graph_, s, t).connected;
    ++taken_;
    scratch_.clear();
    if (connected) {
      kernel_->sample_path(*graph_, rng_, scratch_);
      frame.record(scratch_);
    } else {
      frame.record_empty();
    }
    if (observer_ != nullptr) observer_->on_sample(s, t, connected, scratch_);
  }

  [[nodiscard]] std::uint64_t samples_taken() const { return taken_; }

 private:
  const graph::Graph* graph_;
  std::shared_ptr<graph::BidirectionalBfs> kernel_;
  Rng rng_;
  std::vector<graph::Vertex> scratch_;
  std::uint64_t taken_ = 0;
  SampleObserver* observer_ = nullptr;
};

}  // namespace distbc::bc
