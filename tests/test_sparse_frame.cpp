// Tests for the pluggable frame-representation layer: SparseFrame
// semantics (touched-set tracking, O(nnz) clear/merge, overlapping
// deltas, tau-only frames, record/unrecord round trips), the wire-image
// codec (dense and sparse encodings, densify threshold, additive decode),
// and equivalence against a plain counter vector under random record
// sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "epoch/epoch_manager.hpp"
#include "epoch/frame_codec.hpp"
#include "epoch/sparse_frame.hpp"
#include "support/random.hpp"

namespace distbc::epoch {
namespace {

TEST(SparseFrame, RecordsTauAndCounts) {
  SparseFrame frame(5);
  const std::vector<std::uint32_t> path{1, 3};
  frame.record(path);
  frame.record_empty();
  EXPECT_EQ(frame.tau(), 2u);
  EXPECT_EQ(frame.count(1), 1u);
  EXPECT_EQ(frame.count(3), 1u);
  EXPECT_EQ(frame.count(0), 0u);
  EXPECT_EQ(frame.nonzero_count(), 2u);
  EXPECT_TRUE(frame.counts_consistent());
}

TEST(SparseFrame, ClearResetsOnlyTouchedSlotsButAll) {
  SparseFrame frame(8);
  frame.record(std::vector<std::uint32_t>{0, 4, 7});
  frame.clear();
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(frame.nonzero_count(), 0u);
  for (std::uint32_t v = 0; v < 8; ++v) EXPECT_EQ(frame.count(v), 0u);
  // Reusable after clear: touched bookkeeping starts fresh.
  frame.record(std::vector<std::uint32_t>{4});
  EXPECT_EQ(frame.count(4), 1u);
  EXPECT_EQ(frame.nonzero_count(), 1u);
}

TEST(SparseFrame, MergeOfOverlappingDeltasAddsExactly) {
  SparseFrame a(6);
  SparseFrame b(6);
  a.record(std::vector<std::uint32_t>{1, 2});
  b.record(std::vector<std::uint32_t>{2, 3});
  b.record(std::vector<std::uint32_t>{2});
  a.merge(b);
  EXPECT_EQ(a.tau(), 3u);
  EXPECT_EQ(a.count(1), 1u);
  EXPECT_EQ(a.count(2), 3u);  // overlap: 1 from a + 2 from b
  EXPECT_EQ(a.count(3), 1u);
  EXPECT_EQ(a.nonzero_count(), 3u);
}

TEST(SparseFrame, MergeOfEmptySourceIsNoOp) {
  SparseFrame a(4);
  a.record(std::vector<std::uint32_t>{2});
  const SparseFrame idle(4);
  a.merge(idle);
  EXPECT_EQ(a.tau(), 1u);
  EXPECT_EQ(a.count(2), 1u);
}

TEST(SparseFrame, TauOnlyFrameEncodesOnePair) {
  SparseFrame frame(100);
  frame.record_empty();
  frame.record_empty();
  std::vector<std::uint64_t> image;
  EXPECT_EQ(frame.encode(image, FrameRep::kSparse), FrameRep::kSparse);
  // [tag, npairs=1, (index=100, tau=2)]
  ASSERT_EQ(image.size(), sparse_image_words(1));
  EXPECT_EQ(image[0], kSparseTag);
  EXPECT_EQ(image[1], 1u);
  EXPECT_EQ(image[2], 100u);
  EXPECT_EQ(image[3], 2u);

  SparseFrame decoded(100);
  decoded.decode_add(image);
  EXPECT_EQ(decoded.tau(), 2u);
  EXPECT_EQ(decoded.nonzero_count(), 0u);
}

TEST(SparseFrame, SparseImagePairsAreSortedByIndex) {
  SparseFrame frame(50);
  frame.record(std::vector<std::uint32_t>{40, 3, 17});
  std::vector<std::uint64_t> image;
  ASSERT_EQ(frame.encode(image, FrameRep::kSparse), FrameRep::kSparse);
  ASSERT_EQ(image[1], 4u);  // 3 vertices + tau pair
  std::uint64_t previous = 0;
  for (std::uint64_t p = 0; p < image[1]; ++p) {
    const std::uint64_t index = image[2 + 2 * p];
    if (p > 0) { EXPECT_GT(index, previous); }
    previous = index;
  }
  EXPECT_EQ(image[2 + 2 * 3], 50u);  // tau pair last (largest index)
}

TEST(SparseFrame, DensifyThresholdGovernsAutoEncoding) {
  // 4 of 8 slots touched: sparse needs 2 + 2*5 = 12 words vs dense 10.
  const std::vector<std::uint32_t> hits{0, 2, 4, 6};
  SparseFrame loose(8, /*densify_threshold=*/2.0);
  loose.record(hits);
  std::vector<std::uint64_t> image;
  EXPECT_EQ(loose.encode(image, FrameRep::kAuto), FrameRep::kSparse);

  SparseFrame strict(8, /*densify_threshold=*/1.0);
  strict.record(hits);
  image.clear();
  EXPECT_EQ(strict.encode(image, FrameRep::kAuto), FrameRep::kDense);
  EXPECT_EQ(image.size(), dense_image_words(9));

  // Forced sparse ignores the threshold (the fixed-sparse ablation arm);
  // forced dense ignores the touched set.
  image.clear();
  EXPECT_EQ(strict.encode(image, FrameRep::kSparse), FrameRep::kSparse);
  image.clear();
  EXPECT_EQ(loose.encode(image, FrameRep::kDense), FrameRep::kDense);
}

TEST(SparseFrame, EncodeDecodeRoundTripsBothRepresentations) {
  Rng rng(99);
  SparseFrame original(64);
  std::vector<std::uint32_t> path;
  for (int sample = 0; sample < 40; ++sample) {
    path.clear();
    const int internal = static_cast<int>(rng.next_bounded(5));
    for (int i = 0; i < internal; ++i)
      path.push_back(static_cast<std::uint32_t>(rng.next_bounded(64)));
    if (path.empty()) {
      original.record_empty();
    } else {
      original.record(path);
    }
  }
  for (const FrameRep rep : {FrameRep::kDense, FrameRep::kSparse}) {
    std::vector<std::uint64_t> image;
    original.encode(image, rep);
    SparseFrame decoded(64);
    decoded.decode_add(image);
    EXPECT_EQ(decoded.tau(), original.tau());
    for (std::uint32_t v = 0; v < 64; ++v)
      EXPECT_EQ(decoded.count(v), original.count(v)) << "rep " << static_cast<int>(rep);
    // Decoding is additive: a second pass doubles everything.
    decoded.decode_add(image);
    EXPECT_EQ(decoded.tau(), 2 * original.tau());
  }
}

TEST(SparseFrame, MatchesReferenceCounterUnderRandomRecording) {
  // Reference: counts then tau in a plain vector, the dense layout.
  Rng rng(1234);
  std::vector<std::uint64_t> reference(33, 0);
  SparseFrame sparse(32);
  std::vector<std::vector<std::uint32_t>> paths;
  for (int sample = 0; sample < 200; ++sample) {
    std::vector<std::uint32_t> path;
    const int internal = static_cast<int>(rng.next_bounded(4));
    for (int i = 0; i < internal; ++i)
      path.push_back(static_cast<std::uint32_t>(rng.next_bounded(32)));
    for (const std::uint32_t v : path) ++reference[v];
    ++reference[32];
    if (path.empty()) {
      sparse.record_empty();
    } else {
      sparse.record(path);
    }
    paths.push_back(std::move(path));
  }
  const std::uint64_t reference_sum =
      std::accumulate(reference.begin(), reference.end() - 1, 0ull);
  EXPECT_EQ(sparse.tau(), reference[32]);
  EXPECT_EQ(sparse.count_sum(), reference_sum);
  for (std::uint32_t v = 0; v < 32; ++v)
    EXPECT_EQ(sparse.count(v), reference[v]);
  EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                         sparse.raw().begin(), sparse.raw().end()));

  // A sparse image decodes into the plain dense layout.
  std::vector<std::uint64_t> image;
  sparse.encode(image, FrameRep::kSparse);
  std::vector<std::uint64_t> from_image(33, 0);
  decode_add_image(std::span<std::uint64_t>(from_image), image);
  EXPECT_EQ(from_image, reference);

  // Record/unrecord round trip: taking back an extra batch of samples
  // restores tau, every count and count_sum(), even where slots dropped
  // back to zero.
  for (std::size_t i = 0; i < 50; ++i) {
    if (paths[i].empty()) {
      sparse.record_empty();
    } else {
      sparse.record(paths[i]);
    }
  }
  for (std::size_t i = 0; i < 50; ++i) sparse.unrecord(paths[i]);
  EXPECT_EQ(sparse.tau(), reference[32]);
  EXPECT_EQ(sparse.count_sum(), reference_sum);
  for (std::uint32_t v = 0; v < 32; ++v)
    EXPECT_EQ(sparse.count(v), reference[v]);

  // Unrecording everything empties the frame; zeroed slots may stay in the
  // touched set (a superset of the nonzeros), which the image tolerates.
  for (const auto& path : paths) sparse.unrecord(path);
  EXPECT_TRUE(sparse.empty());
  EXPECT_EQ(sparse.count_sum(), 0u);
  EXPECT_TRUE(sparse.counts_consistent());
  image.clear();
  sparse.encode(image, FrameRep::kSparse);
  std::vector<std::uint64_t> zeros(33, 0);
  decode_add_image(std::span<std::uint64_t>(zeros), image);
  EXPECT_EQ(zeros, std::vector<std::uint64_t>(33, 0));
}

TEST(SparseFrame, AddDenseTracksTouchedSlots) {
  // Counts {0, 1, 0, 0, 0, 1} then tau = 1.
  const std::vector<std::uint64_t> dense{0, 1, 0, 0, 0, 1, 1};
  SparseFrame sparse(6);
  sparse.add_dense(dense);
  EXPECT_EQ(sparse.nonzero_count(), 2u);
  EXPECT_EQ(sparse.tau(), 1u);
  sparse.clear();
  EXPECT_TRUE(sparse.empty());
  for (std::uint32_t v = 0; v < 6; ++v) EXPECT_EQ(sparse.count(v), 0u);
}

TEST(SparseFrame, WorksUnderEpochManager) {
  EpochManager<SparseFrame> manager(2, SparseFrame(16));
  manager.frame(0, 0).record(std::vector<std::uint32_t>{3});
  manager.frame(1, 0).record(std::vector<std::uint32_t>{3, 9});
  manager.force_transition(0);
  ASSERT_TRUE(manager.check_transition(1, 0));
  SparseFrame aggregate(16);
  manager.collect(0, aggregate);
  EXPECT_EQ(aggregate.tau(), 2u);
  EXPECT_EQ(aggregate.count(3), 2u);
  EXPECT_EQ(aggregate.count(9), 1u);
  EXPECT_TRUE(manager.frame(0, 0).empty());
  EXPECT_TRUE(manager.frame(1, 0).empty());
}

// --- merge_images: the interior-hop combiner of tree-merge reductions -------

/// Decodes an image into a dense vector of `words` slots.
std::vector<std::uint64_t> decoded(std::span<const std::uint64_t> image,
                                   std::size_t words) {
  std::vector<std::uint64_t> dense(words, 0);
  decode_add_image(std::span<std::uint64_t>(dense), image);
  return dense;
}

TEST(MergeImages, SparseSparseMergeJoin) {
  // Disjoint and overlapping indices, ascending order preserved.
  std::vector<std::uint64_t> acc{kSparseTag, 2, 1, 10, 5, 20};
  const std::vector<std::uint64_t> in{kSparseTag, 3, 0, 1, 5, 2, 7, 3};
  merge_images(acc, in, /*dense_words=*/16, /*densify_threshold=*/1.0);
  const std::vector<std::uint64_t> expected{kSparseTag, 4, 0, 1,
                                            1,          10, 5, 22,
                                            7,          3};
  EXPECT_EQ(acc, expected);
}

TEST(MergeImages, EqualsDecodingBothInputs) {
  std::vector<std::uint64_t> acc{kSparseTag, 2, 3, 4, 9, 1};
  const std::vector<std::uint64_t> in{kSparseTag, 2, 3, 6, 12, 2};
  std::vector<std::uint64_t> want = decoded(acc, 16);
  const std::vector<std::uint64_t> other = decoded(in, 16);
  for (std::size_t i = 0; i < want.size(); ++i) want[i] += other[i];
  merge_images(acc, in, 16, 1.0);
  EXPECT_EQ(decoded(acc, 16), want);
}

TEST(MergeImages, DensifiesAtTheCrossover) {
  // 16-slot space: sparse pays while 2 + 2 * npairs < 1 + 16. Merging two
  // 4-pair images with disjoint indices gives 8 pairs -> 18 words >= 17,
  // so the result must densify (mid-tree densification).
  std::vector<std::uint64_t> acc{kSparseTag, 4, 0, 1, 2, 1, 4, 1, 6, 1};
  const std::vector<std::uint64_t> in{kSparseTag, 4, 1, 2, 3, 2, 5, 2, 7, 2};
  const std::vector<std::uint64_t> want = [&] {
    std::vector<std::uint64_t> dense = decoded(acc, 16);
    const std::vector<std::uint64_t> other = decoded(in, 16);
    for (std::size_t i = 0; i < dense.size(); ++i) dense[i] += other[i];
    return dense;
  }();
  merge_images(acc, in, 16, 1.0);
  ASSERT_EQ(image_rep(acc), FrameRep::kDense);
  EXPECT_EQ(decoded(acc, 16), want);

  // A lower threshold densifies earlier: a single-pair merge (4 image
  // words) stops paying under 0.2 x the 17-word dense image.
  std::vector<std::uint64_t> small{kSparseTag, 1, 0, 1};
  const std::vector<std::uint64_t> same = small;
  merge_images(small, same, 16, 0.2);
  EXPECT_EQ(image_rep(small), FrameRep::kDense);
  EXPECT_EQ(decoded(small, 16)[0], 2u);
}

TEST(MergeImages, DenseOperandsDensifyTheResult) {
  // dense += sparse.
  std::vector<std::uint64_t> acc{kDenseTag, 1, 2, 3, 0};
  merge_images(acc, std::vector<std::uint64_t>{kSparseTag, 1, 3, 5}, 4, 1.0);
  EXPECT_EQ(acc, (std::vector<std::uint64_t>{kDenseTag, 1, 2, 3, 5}));
  // sparse += dense: the accumulator densifies.
  std::vector<std::uint64_t> sparse{kSparseTag, 1, 0, 7};
  merge_images(sparse, std::vector<std::uint64_t>{kDenseTag, 1, 1, 1, 1}, 4,
               1.0);
  EXPECT_EQ(sparse, (std::vector<std::uint64_t>{kDenseTag, 8, 1, 1, 1}));
  // dense += dense.
  std::vector<std::uint64_t> both{kDenseTag, 1, 1, 1, 1};
  merge_images(both, std::vector<std::uint64_t>{kDenseTag, 1, 0, 0, 2}, 4,
               1.0);
  EXPECT_EQ(both, (std::vector<std::uint64_t>{kDenseTag, 2, 1, 1, 3}));
}

TEST(FrameRepNames, RoundTrip) {
  for (const FrameRep rep :
       {FrameRep::kDense, FrameRep::kSparse, FrameRep::kAuto}) {
    const auto back = frame_rep_from_name(frame_rep_name(rep));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, rep);
  }
  EXPECT_FALSE(frame_rep_from_name("nonsense").has_value());
}

}  // namespace
}  // namespace distbc::epoch
