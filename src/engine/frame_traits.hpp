// Compile-time classification of frame types for the engine's pluggable
// frame-representation layer.
//
// The engine accepts any Frame with clear()/merge() that is:
//   * DenseReducible  - a const flat raw() view plus add_dense(): the
//     classic elementwise MPI reduction (the paper's §III-B/§IV-F wire
//     format). The engine reduces the const view into a scratch vector and
//     adds the result back through add_dense() on a cleared frame; it
//     never writes through raw(), so frames that keep bookkeeping beside
//     their counts (epoch::SparseFrame's touched set) stay consistent.
// A frame that is also
//   * WireSerializable - the frame_codec encode()/decode_add() contract -
//     can take the variable-length image path instead (sparse delta
//     frames, auto-densifying payloads, the communicator's reduce_merge
//     path) when the frame_rep knob asks for it.
// epoch::SparseFrame and the adaptive estimators' frames are both; minimal
// test frames are dense-reducible only and always take the classic path.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "epoch/frame_codec.hpp"

namespace distbc::engine {

template <typename Frame>
concept DenseReducible = requires(const Frame cframe, Frame frame,
                                  std::span<const std::uint64_t> dense) {
  { cframe.raw() } -> std::convertible_to<std::span<const std::uint64_t>>;
  frame.add_dense(dense);
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
/// this frame type instead of the dense elementwise reduction.
template <typename Frame>
[[nodiscard]] constexpr bool uses_wire_images(epoch::FrameRep rep) {
  return WireSerializable<Frame> && rep != epoch::FrameRep::kDense;
}

}  // namespace distbc::engine
