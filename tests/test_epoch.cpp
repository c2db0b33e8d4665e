// Tests for the epoch-based framework: the state frame layout, transition
// semantics, double-buffer reuse, and a multi-threaded no-lost-samples
// stress test.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "epoch/epoch_manager.hpp"
#include "epoch/sparse_frame.hpp"

namespace distbc::epoch {
namespace {

// Frame semantics beyond the raw layout (record, merge, clear) are covered
// in test_sparse_frame.
TEST(SparseFrame, RawLayoutIsCountsThenTau) {
  SparseFrame frame(3);
  frame.record(std::vector<std::uint32_t>{2});
  const auto raw = frame.raw();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_EQ(raw[2], 1u);
  EXPECT_EQ(raw[3], 1u);  // tau in the last slot
}

TEST(EpochManager, SingleThreadTransitionIsImmediate) {
  EpochManager<SparseFrame> manager(1, SparseFrame(4));
  EXPECT_FALSE(manager.transition_done(0));  // not yet forced
  manager.force_transition(0);
  EXPECT_TRUE(manager.transition_done(0));
  manager.force_transition(1);
  EXPECT_TRUE(manager.transition_done(1));
}

TEST(EpochManager, CheckTransitionIsNoOpWithoutForce) {
  EpochManager<SparseFrame> manager(2, SparseFrame(4));
  EXPECT_FALSE(manager.check_transition(1, 0));
  EXPECT_EQ(manager.thread_epoch(1), 0u);
}

TEST(EpochManager, CheckTransitionParticipates) {
  EpochManager<SparseFrame> manager(2, SparseFrame(4));
  manager.force_transition(0);
  EXPECT_FALSE(manager.transition_done(0));  // thread 1 lagging
  EXPECT_TRUE(manager.check_transition(1, 0));
  EXPECT_TRUE(manager.transition_done(0));
  EXPECT_EQ(manager.thread_epoch(1), 1u);
}

TEST(EpochManager, FrameSelectionAlternatesByParity) {
  EpochManager<SparseFrame> manager(1, SparseFrame(4));
  SparseFrame& even = manager.frame(0, 0);
  SparseFrame& odd = manager.frame(0, 1);
  EXPECT_NE(&even, &odd);
  EXPECT_EQ(&even, &manager.frame(0, 2));  // reuse two epochs later
}

TEST(EpochManager, CollectMergesAndClears) {
  EpochManager<SparseFrame> manager(2, SparseFrame(4));
  manager.frame(0, 0).record(std::vector<std::uint32_t>{1});
  manager.frame(1, 0).record(std::vector<std::uint32_t>{1, 2});
  manager.force_transition(0);
  ASSERT_TRUE(manager.check_transition(1, 0));

  SparseFrame aggregate(4);
  manager.collect(0, aggregate);
  EXPECT_EQ(aggregate.tau(), 2u);
  EXPECT_EQ(aggregate.count(1), 2u);
  EXPECT_TRUE(manager.frame(0, 0).empty());
  EXPECT_TRUE(manager.frame(1, 0).empty());
}

TEST(EpochManager, StopFlagPropagates) {
  EpochManager<SparseFrame> manager(3, SparseFrame(2));
  EXPECT_FALSE(manager.stopped());
  manager.signal_stop();
  EXPECT_TRUE(manager.stopped());
}

// Stress: T sampler threads record continuously while thread zero cycles
// through many epochs; every recorded sample must be collected exactly once
// (nothing lost, nothing duplicated).
TEST(EpochManager, StressNoLostSamples) {
  constexpr int kThreads = 8;     // sampler threads 1..7 plus thread 0
  constexpr int kEpochs = 60;
  constexpr std::uint32_t kVertices = 16;
  EpochManager<SparseFrame> manager(kThreads, SparseFrame(kVertices));

  std::vector<std::uint64_t> produced(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 1; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint32_t epoch = 0;
      std::uint64_t count = 0;
      std::vector<std::uint32_t> path{static_cast<std::uint32_t>(t)};
      while (!manager.stopped()) {
        manager.frame(t, epoch).record(path);
        ++count;
        if (manager.check_transition(t, epoch)) ++epoch;
      }
      // Samples recorded into the current (never-collected) epoch after the
      // final collection are legitimately discarded; subtract them.
      produced[t] = count - manager.frame(t, epoch).tau();
    });
  }

  SparseFrame aggregate(kVertices);
  std::vector<std::uint32_t> zero_path{0};
  std::uint64_t thread0_produced = 0;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    for (int i = 0; i < 50; ++i) {
      manager.frame(0, epoch).record(zero_path);
      ++thread0_produced;
    }
    manager.force_transition(epoch);
    while (!manager.transition_done(epoch)) {
      manager.frame(0, epoch + 1).record(zero_path);
      ++thread0_produced;
    }
    manager.collect(epoch, aggregate);
  }
  manager.signal_stop();
  for (auto& worker : workers) worker.join();
  // Thread zero's uncollected tail lives in the frame after the last epoch.
  thread0_produced -= manager.frame(0, kEpochs).tau();
  produced[0] = thread0_produced;

  std::uint64_t total_produced = 0;
  for (const auto value : produced) total_produced += value;
  EXPECT_EQ(aggregate.tau(), total_produced);
  // Per-thread counts arrive intact (each thread records its own id).
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(aggregate.count(static_cast<std::uint32_t>(t)), produced[t])
        << "thread " << t;
  EXPECT_TRUE(aggregate.counts_consistent());
}

// Samplers never block: even if thread zero never forces a transition,
// sampler threads keep making progress.
TEST(EpochManager, SamplersProgressWithoutTransitions) {
  EpochManager<SparseFrame> manager(2, SparseFrame(2));
  std::atomic<std::uint64_t> recorded{0};
  std::thread sampler([&] {
    std::vector<std::uint32_t> path{1};
    for (int i = 0; i < 100000; ++i) {
      manager.frame(1, 0).record(path);
      ++recorded;
      (void)manager.check_transition(1, 0);
    }
  });
  sampler.join();
  EXPECT_EQ(recorded.load(), 100000u);
  EXPECT_EQ(manager.frame(1, 0).tau(), 100000u);
}

}  // namespace
}  // namespace distbc::epoch
