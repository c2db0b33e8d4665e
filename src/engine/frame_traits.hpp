// Compile-time classification of frame types for the engine's pluggable
// frame-representation layer.
//
// The engine accepts any Frame with clear()/merge(); how an epoch snapshot
// crosses the wire depends on what else the frame offers:
//   * DenseReducible  - a mutable flat raw() span: eligible for the classic
//     elementwise MPI reduction (the paper's §III-B/§IV-F wire format).
//   * WireSerializable - the frame_codec encode()/decode_add() contract:
//     eligible for the variable-length image path (sparse delta frames,
//     auto-densifying payloads, the communicator's reduce_merge path).
// StateFrame satisfies both (the frame_rep knob picks); SparseFrame is
// serializable only (its dense view is read-only, so the elementwise path
// cannot bypass its touched-set bookkeeping); minimal test frames are
// dense-reducible only and always take the classic path.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "epoch/frame_codec.hpp"

namespace distbc::engine {

template <typename Frame>
concept DenseReducible = requires(Frame frame) {
  { frame.raw() } -> std::convertible_to<std::span<std::uint64_t>>;
};

template <typename Frame>
concept WireSerializable =
    requires(const Frame cframe, Frame frame, std::vector<std::uint64_t>& out,
             std::span<const std::uint64_t> image) {
      { cframe.dense_words() } -> std::convertible_to<std::size_t>;
      {
        cframe.encode(out, epoch::FrameRep::kAuto)
      } -> std::same_as<epoch::FrameRep>;
      frame.decode_add(image);
      frame.add_dense(image);
    };

/// The densify threshold governing a frame's kAuto encoding, when the
/// frame exposes one (epoch::SparseFrame); 1.0 - the plain dense-size
/// crossover - otherwise. Mid-tree densification of tree-merge reductions
/// uses the same rule, so merged images follow the frame's own policy.
template <typename Frame>
[[nodiscard]] double densify_threshold_of(const Frame& frame) {
  if constexpr (requires {
                  { frame.densify_threshold() } -> std::convertible_to<double>;
                }) {
    return frame.densify_threshold();
  } else {
    return 1.0;
  }
}

/// Whether a run with `rep` moves wire images (variable-length path) for
/// this frame type; frames without a mutable dense view always do.
template <typename Frame>
[[nodiscard]] constexpr bool uses_wire_images(epoch::FrameRep rep) {
  if constexpr (!WireSerializable<Frame>) {
    return false;
  } else if constexpr (!DenseReducible<Frame>) {
    (void)rep;
    return true;
  } else {
    return rep != epoch::FrameRep::kDense;
  }
}

}  // namespace distbc::engine
