// Hierarchical node-local pre-reduction (paper §IV-E).
//
// With multiple ranks per compute node, every rank first accumulates its
// epoch snapshot into a node-local shared RMA window (passive-target
// one-sided communication over shared memory); only the node leader reads
// the pre-reduced node aggregate back and joins the global inter-node
// reduction. This shrinks the global reduction from P to P/ranks_per_node
// participants at the cost of one cheap intra-node window pass.
//
// The window itself is always the dense flat frame; what varies is how a
// rank's snapshot enters it. Under the dense representation a rank
// accumulates its frame's whole raw() view (the original path). Under a
// sparse representation it scatter-adds its encoded delta pairs, so the
// intra-node pass moves O(nonzeros); the leader then re-reads the dense
// node aggregate and ships whatever encoding the global representation
// policy picks - typically dense, since the node aggregate is the union of
// its ranks' deltas ("only leaders ship dense data when that is cheaper").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "engine/frame_traits.hpp"
#include "epoch/frame_codec.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/window.hpp"

namespace distbc::engine {

class Hierarchy {
 public:
  Hierarchy() = default;
  // The window points at local_, so a Hierarchy stays where it was built.
  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;

  /// Collective over `world`: splits node-local and node-leader
  /// communicators and creates the shared window of `frame_words` uint64
  /// slots. Must be called by every rank of `world`.
  void init(mpisim::Comm& world, std::size_t frame_words) {
    local_ = world.split_by_node();
    leader_ = world.split_node_leaders();
    window_.emplace(local_, frame_words);
    active_ = true;
  }

  [[nodiscard]] bool active() const { return active_; }

  /// Pre-reduces `frame` over the node-local window. Collective over the
  /// node communicator. Returns true iff this rank is the node leader, in
  /// which case `frame` now holds the whole node's aggregate and the
  /// caller must forward it into the global reduction via global().
  /// `rep` selects how snapshots enter the window when the frame supports
  /// wire images (ignored on the dense path).
  template <typename Frame>
  [[nodiscard]] bool pre_reduce(Frame& frame, epoch::FrameRep rep) {
    DISTBC_ASSERT(active_);
    if constexpr (WireSerializable<Frame>) {
      if (uses_wire_images<Frame>(rep)) return pre_reduce_images(frame, rep);
    }
    window_->accumulate(std::span<const std::uint64_t>(frame.raw()));
    local_.barrier();
    const bool leader = local_.rank() == 0;
    if (leader) {
      frame.clear();
      add_window(frame);
    }
    local_.barrier();
    return leader;
  }

  /// The inter-node communicator of the node leaders. Its rank zero is
  /// world rank zero; only valid on node leaders.
  [[nodiscard]] mpisim::Comm& global() {
    DISTBC_ASSERT(active_ && leader_.valid());
    return leader_;
  }

  /// The intra-node communicator (valid on every rank; its rank zero is
  /// the node leader). The downward leg of the two-level path: leaders
  /// redistribute the globally merged aggregate over this communicator so
  /// every rank can evaluate the stopping rule locally.
  [[nodiscard]] mpisim::Comm& node() {
    DISTBC_ASSERT(active_);
    return local_;
  }

  /// Payload moved by the hierarchical path (window + leader comm).
  [[nodiscard]] std::uint64_t comm_bytes() { return volume().total(); }

  /// Per-collective byte breakdown of the hierarchical path.
  [[nodiscard]] mpisim::CommVolume volume() {
    mpisim::CommVolume bytes;
    if (!active_) return bytes;
    bytes += local_.stats().volume();
    if (leader_.valid()) bytes += leader_.stats().volume();
    return bytes;
  }

 private:
  template <typename Frame>
  [[nodiscard]] bool pre_reduce_images(Frame& frame, epoch::FrameRep rep) {
    image_.clear();
    frame.encode(image_, rep);
    const std::span<const std::uint64_t> image(image_);
    if (epoch::image_rep(image) == epoch::FrameRep::kDense) {
      window_->accumulate(image.subspan(1));
    } else {
      window_->accumulate_pairs(image.subspan(2));
    }
    local_.barrier();
    const bool leader = local_.rank() == 0;
    if (leader) {
      frame.clear();
      // Windowed touched-bitmap read-back: as long as every rank scattered
      // sparse pairs, the leader sweeps only the union of touched slots -
      // O(union nnz) per epoch instead of O(V). The pair list decodes as a
      // synthesized sparse image, so the frame's own touched bookkeeping
      // stays consistent.
      image_.assign(2, 0);
      if (window_->read_touched_pairs(image_)) {
        image_[0] = epoch::kSparseTag;
        image_[1] = (image_.size() - 2) / 2;
        frame.decode_add(std::span<const std::uint64_t>(image_));
        window_->clear_touched();
      } else {
        // A dense accumulate filled the window: pay the O(V) read-back.
        add_window(frame);
      }
    }
    local_.barrier();
    return leader;
  }

  /// The leader's dense read-back: adds the whole window to `frame` and
  /// clears the window for the next epoch.
  template <typename Frame>
  void add_window(Frame& frame) {
    if (scratch_.size() != window_->size())
      scratch_.assign(window_->size(), 0);
    window_->read(std::span<std::uint64_t>(scratch_));
    window_->clear();
    frame.add_dense(scratch_);
  }

  mpisim::Comm local_;
  mpisim::Comm leader_;
  std::optional<mpisim::Window<std::uint64_t>> window_;
  std::vector<std::uint64_t> scratch_;  // leader's dense read-back buffer
  std::vector<std::uint64_t> image_;    // per-epoch encode buffer
  bool active_ = false;
};

}  // namespace distbc::engine
