// The betweenness state frame (paper §III-B): S = (tau, c~), the number of
// samples taken and the per-vertex path counts accumulated by one thread
// during one epoch.
//
// The counts live in one dense flat uint64 array with tau in the last
// slot, so record() is an O(1) increment per path vertex and raw() is the
// paper's counts-then-tau vector, which the engine aggregates as one
// elementwise reduction (FrameRep::kDense). An epoch on a large graph
// records only epoch_length x avg_path_length distinct vertex hits,
// though, so that vector is overwhelmingly zeros. The frame therefore also
// tracks the set of touched vertices, which makes clear()/merge()
// O(nonzeros) and lets encode() emit sorted (index, count) delta pairs
// instead of the flat vector. Decoding is additive, so overlapping deltas
// from different threads or ranks merge exactly like dense elementwise
// sums - in the engine's deterministic mode the aggregate is bitwise
// identical across wire representations.
//
// The densify threshold governs the kAuto encoding: pairs are emitted only
// while the sparse image stays under threshold x the dense image; past the
// crossover the frame densifies automatically. kSparse forces pairs
// regardless (the fixed-sparse ablation arm); kDense forces the flat image.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "epoch/frame_codec.hpp"
#include "support/assert.hpp"

namespace distbc::epoch {

class SparseFrame {
 public:
  SparseFrame() = default;
  explicit SparseFrame(std::uint32_t num_vertices,
                       double densify_threshold = 1.0)
      : data_(static_cast<std::size_t>(num_vertices) + 1, 0),
        present_(num_vertices, 0),
        num_vertices_(num_vertices),
        densify_threshold_(densify_threshold) {}

  [[nodiscard]] std::uint32_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] double densify_threshold() const { return densify_threshold_; }

  /// Records one sample: increments tau and the count of every internal
  /// vertex of the sampled path (possibly none for adjacent endpoints).
  void record(std::span<const std::uint32_t> internal_vertices) {
    for (const std::uint32_t v : internal_vertices) {
      DISTBC_DEBUG_ASSERT(v < num_vertices_);
      touch(v);
      ++data_[v];
    }
    ++data_[num_vertices_];
  }

  /// The exact inverse of record(): takes back one previously recorded
  /// sample (an empty span takes back a record_empty()). Slots that drop
  /// to zero stay in the touched set, so afterwards nonzero_count() and
  /// the sparse image may cover a superset of the nonzero slots; counts,
  /// tau and count_sum() are exact.
  void unrecord(std::span<const std::uint32_t> internal_vertices) {
    for (const std::uint32_t v : internal_vertices) {
      DISTBC_DEBUG_ASSERT(v < num_vertices_ && data_[v] > 0);
      --data_[v];
    }
    DISTBC_ASSERT(data_[num_vertices_] > 0);
    --data_[num_vertices_];
  }

  /// Records a sample of a disconnected pair: tau advances, no counts.
  void record_empty() { ++data_[num_vertices_]; }

  [[nodiscard]] std::uint64_t tau() const { return data_[num_vertices_]; }
  [[nodiscard]] std::uint64_t count(std::uint32_t v) const {
    DISTBC_DEBUG_ASSERT(v < num_vertices_);
    return data_[v];
  }
  [[nodiscard]] bool empty() const { return tau() == 0; }

  /// Distinct touched vertices: exactly the nonzero slots, unless
  /// unrecord() has since zeroed some of them.
  [[nodiscard]] std::size_t nonzero_count() const { return touched_.size(); }

  /// Dense flat view (counts followed by tau). Read-only: writes that
  /// bypass record()/merge()/decode_add()/add_dense() would desynchronize
  /// the touched set, so dense reducers reduce this view into a buffer and
  /// add the result back through add_dense().
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data_; }

  /// O(nonzeros): only touched slots (and tau) are swept.
  void clear() {
    for (const std::uint32_t v : touched_) {
      data_[v] = 0;
      present_[v] = 0;
    }
    touched_.clear();
    data_[num_vertices_] = 0;
  }

  /// O(other.nonzeros); overlapping deltas add exactly.
  void merge(const SparseFrame& other) {
    DISTBC_ASSERT(other.data_.size() == data_.size());
    if (other.empty()) return;
    for (const std::uint32_t v : other.touched_) {
      touch(v);
      data_[v] += other.data_[v];
    }
    data_[num_vertices_] += other.data_[num_vertices_];
  }

  // --- Wire-image interface (frame_codec.hpp) ----------------------------

  [[nodiscard]] std::size_t dense_words() const { return data_.size(); }

  /// Appends this frame's wire image to `out`, honoring `preference`
  /// (kSparse forces pairs, kDense forces the flat image, kAuto applies the
  /// densify threshold). Returns the representation actually emitted.
  /// The tau slot travels as pair (num_vertices, tau) in sparse images.
  FrameRep encode(std::vector<std::uint64_t>& out,
                  FrameRep preference) const {
    const std::size_t npairs = touched_.size() + (tau() != 0 ? 1 : 0);
    const bool sparse =
        preference == FrameRep::kSparse ||
        (preference == FrameRep::kAuto &&
         sparse_pays(npairs, dense_words(), densify_threshold_));
    if (!sparse) {
      append_dense_image(data_, out);
      return FrameRep::kDense;
    }
    // Reused scratch: encode runs once per epoch on the aggregation path,
    // so the sort buffer must not reallocate every time.
    sort_scratch_.assign(touched_.begin(), touched_.end());
    std::sort(sort_scratch_.begin(), sort_scratch_.end());
    if (tau() != 0) sort_scratch_.push_back(num_vertices_);
    append_sparse_image(data_, sort_scratch_, out);
    return FrameRep::kSparse;
  }

  /// Additively merges a wire image (either representation).
  void decode_add(std::span<const std::uint64_t> image) {
    decode_add_image(std::span<std::uint64_t>(data_), image,
                     [this](std::size_t i) {
                       if (i < num_vertices_)
                         touch(static_cast<std::uint32_t>(i));
                     });
  }

  /// Elementwise add of a flat dense frame (the result of a dense
  /// reduction or window read-back). O(V) - the same order as the dense
  /// reduction that produced it.
  void add_dense(std::span<const std::uint64_t> dense) {
    DISTBC_ASSERT(dense.size() == data_.size());
    for (std::uint32_t v = 0; v < num_vertices_; ++v) {
      if (dense[v] == 0) continue;
      touch(v);
      data_[v] += dense[v];
    }
    data_[num_vertices_] += dense[num_vertices_];
  }

  /// Consistency invariant: a path contributes at most (its length - 1) <
  /// num_vertices counts, and no samples means no counts. O(nonzeros);
  /// a cheap sanity check for tests and debug assertions.
  [[nodiscard]] bool counts_consistent() const {
    const std::uint64_t total = count_sum();
    return tau() == 0 ? total == 0
                      : total <= tau() * static_cast<std::uint64_t>(
                                             num_vertices_);
  }

  /// Sum of all per-vertex counts (tau excluded).
  [[nodiscard]] std::uint64_t count_sum() const {
    std::uint64_t total = 0;
    for (const std::uint32_t v : touched_) total += data_[v];
    return total;
  }

 private:
  void touch(std::uint32_t v) {
    if (present_[v] != 0) return;
    present_[v] = 1;
    touched_.push_back(v);
  }

  std::vector<std::uint64_t> data_;   // counts followed by tau
  std::vector<std::uint32_t> touched_;  // distinct touched vertices, unordered
  std::vector<std::uint8_t> present_;
  mutable std::vector<std::uint32_t> sort_scratch_;  // encode() reuse
  std::uint32_t num_vertices_ = 0;
  double densify_threshold_ = 1.0;
};

}  // namespace distbc::epoch
