// The pluggable epoch-sampling engine: one implementation of the paper's
// Algorithm 2 serving every adaptive-sampling workload and every backend.
//
// The algorithm-specific pieces - the state-frame layout, the sampling
// kernel, the stopping rule - are template parameters; everything the paper
// contributes is engine machinery shared by all of them:
//   * per-thread wait-free frames with overlapped epoch transitions (§IV-B/C),
//   * the epoch-length rule (§IV-D, streams.hpp),
//   * selectable aggregation strategies (§IV-F): Ibarrier + blocking Reduce,
//     plain Ireduce, or fully blocking,
//   * hierarchical node-local RMA pre-reduction (§IV-E, hierarchy.hpp),
//     composable with a leader-level radix tree into one two-level merge
//     path (EngineOptions::leader_radix),
//   * decentralized termination: the merged epoch aggregate is distributed
//     to every rank (all-reduce flavors, or the tree path's downward
//     broadcast leg), so each rank evaluates the stopping rule locally on
//     identical data - no rank-0 verdict broadcast,
//   * per-phase stats plumbing.
//
// Backends are pure configurations of this engine:
//   seq = no communicator (world == nullptr), 1 thread;
//   shm = no communicator, T threads;
//   mpi = P ranks x T threads over an mpisim communicator.
// With a null communicator (or a 1-rank world) every collective degenerates
// to a no-op and the epoch aggregate feeds the stopping rule directly.
//
// Requirements on Frame:
//   Frame(const Frame&)            - copyable prototype construction
//   void clear()
//   void merge(const Frame&)       - equivalent to elementwise sum
//   std::span<const std::uint64_t> raw() const + add_dense() - the flat
//     view (engine/frame_traits.hpp DenseReducible): the classic
//     elementwise-reduction path and the dense §IV-E window pass. The
//     engine reduces the const view into a reused scratch vector, then
//     clears the target frame and add_dense()s the result, so it never
//     writes through raw();
// and optionally the wire-image interface (WireSerializable):
//   dense_words()/encode()/decode_add() - the frame_codec serialization
//     contract: variable-length wire images (dense or sparse index/count
//     deltas), moved by the communicator's reduce_merge path and
//     scatter-added into the §IV-E window.
// EngineOptions::frame_rep picks the wire representation for frames with
// both (epoch::SparseFrame, the betweenness frame, has both). In
// deterministic mode all representations produce bitwise-identical
// aggregates: images carry exact uint64 counts and decoding is a
// commutative elementwise sum.
// Requirements on the sampler factory: Sampler make(stream_index) for
// stream indices in [0, num_streams), where Sampler provides
// void sample(Frame&). A physical thread takes its streams' samples one at
// a time, stream after stream, so the factory may hand every stream of a
// thread one shared traversal workspace. Requirements on the stop functor (evaluated on EVERY
// rank, each holding the identical merged aggregate - it must be a pure
// function of that aggregate, or ranks diverge and the run deadlocks):
// bool operator()(const Frame&).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/frame_traits.hpp"
#include "engine/hierarchy.hpp"
#include "engine/streams.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/frame_codec.hpp"
#include "mpisim/comm.hpp"
#include "support/timer.hpp"

namespace distbc::engine {

/// Aggregation strategies of paper §IV-F.
enum class Aggregation : std::uint8_t {
  kIbarrierReduce,  // paper's final choice: Ibarrier, then blocking Reduce
  kIreduce,         // plain non-blocking reduction (progresses poorly)
  kBlocking         // no overlap at all ("again detrimental")
};

[[nodiscard]] const char* aggregation_name(Aggregation aggregation);

[[nodiscard]] std::optional<Aggregation> aggregation_from_name(
    std::string_view name);

/// Wire representation of epoch state frames (epoch/frame_codec.hpp):
/// dense flat vectors, sparse index/count deltas, or per-payload choice.
using FrameRep = epoch::FrameRep;

struct EngineOptions {
  int threads_per_rank = 1;
  Aggregation aggregation = Aggregation::kIbarrierReduce;
  /// §IV-E: node-local shared-memory pre-aggregation; only node leaders
  /// join the global reduction. Ignored on single-rank runs.
  bool hierarchical = false;
  /// Epoch length rule n0 = epoch_base * streams^epoch_exponent (§IV-D),
  /// counting *total* samples per epoch across all streams.
  std::uint64_t epoch_base = 1000;
  double epoch_exponent = 1.33;
  /// Optional cap on the total epoch length (0 = none). Adaptive drivers
  /// clamp with a fraction of their sample budget so the first stopping
  /// check happens before easy instances overshoot termination.
  std::uint64_t max_epoch_length = 0;
  /// Hard cap on epochs (safety net for never-converging stop rules).
  std::uint64_t max_epochs = 1u << 20;
  /// Deterministic mode: every stream contributes an exact per-epoch share
  /// and no overlap samples are taken, so the aggregate after every epoch
  /// is a pure function of (seed, streams, epoch schedule) - bitwise
  /// identical across backends, cluster shapes, and aggregation strategies.
  bool deterministic = false;
  /// Stream count for deterministic mode (0 = physical thread count).
  /// Fixing it decouples the sample set from the physical layout.
  std::uint64_t virtual_streams = 0;
  /// Frame representation on the wire: kDense ships the flat |V|+1 vector
  /// as one elementwise reduction (the paper's layout); kSparse ships
  /// index/count delta pairs over variable-length merge reductions, making
  /// aggregation cost proportional to samples taken; kAuto picks the
  /// smaller image per payload (never loses to the worse fixed choice).
  /// Only effective for frames implementing the wire-image interface
  /// (every driver's frame does); it selects the wire format, not a frame
  /// class.
  /// Process-wide defaulting (the DISTBC_FRAME_REP environment variable)
  /// lives exclusively in api::Config; the engine itself never peeks at
  /// the environment.
  FrameRep frame_rep = epoch::FrameRep::kDense;
  /// Tree-merge aggregation of wire images (mpisim reduce_merge_tree):
  /// 0 = flat (the root ingests every per-rank image); >= 2 = images
  /// combine at interior ranks of a radix-k tree with mid-tree
  /// densification, charging alpha-beta per hop, so root ingest shrinks
  /// from O(P x nnz) to the top-of-tree merged images and latency grows
  /// with depth instead of P. Only affects the wire-image path; the final
  /// aggregate is bitwise identical in deterministic mode. Environment
  /// defaulting (DISTBC_TREE_RADIX) is api::Config's job, not the
  /// engine's.
  int tree_radix = 0;
  /// Radix of the leader-level (inter-node) merge when `hierarchical` is
  /// set - the top half of the two-level path: ranks pre-reduce over the
  /// node window, node leaders tree-merge at this radix. 0 = inherit
  /// tree_radix, so existing single-knob configurations keep their PR 4
  /// shape; >= 2 overrides it for the leader hop class only (intra-node
  /// stays the RMA window pass either way). Ignored without `hierarchical`.
  /// Environment defaulting (DISTBC_LEADER_RADIX) is api::Config's job.
  int leader_radix = 0;
  /// Keep per-rank local aggregates: every rank (the root included) also
  /// accumulates its own epoch snapshots into
  /// EngineResult::local_aggregate, feeding collectives that operate on
  /// per-rank partials (e.g. the distributed top-k extraction). Off by
  /// default - it costs one frame merge per epoch.
  bool local_aggregates = false;
};

/// Number of RNG streams a run with these options draws from; sampler
/// factories receive stream indices in [0, num_streams).
[[nodiscard]] inline std::uint64_t num_streams(const EngineOptions& options,
                                               int num_ranks) {
  const auto physical = static_cast<std::uint64_t>(num_ranks) *
                        static_cast<std::uint64_t>(options.threads_per_rank);
  if (options.deterministic && options.virtual_streams != 0)
    return options.virtual_streams;
  return physical;
}

/// One traversal workspace per physical thread of this rank, for sampler
/// factories: every stream a thread samples gets that thread's workspace
/// (stream v runs on local thread stream_owner(v, P*T) % T, the rule
/// detail::assign_streams applies). A thread takes its streams' samples
/// one at a time, so sharing changes no draw; it keeps a deterministic run
/// with many virtual streams at one O(|V|) workspace per thread. Not
/// thread-safe: call it from the factory, which the engine invokes on the
/// rank's main thread before any worker starts.
template <typename Workspace>
class ThreadWorkspaces {
 public:
  explicit ThreadWorkspaces(std::uint32_t num_vertices)
      : num_vertices_(num_vertices) {}

  /// The workspace of the thread that samples stream `v` in a run with
  /// `options` on `num_ranks` ranks; built on first use.
  [[nodiscard]] std::shared_ptr<Workspace> for_stream(
      std::uint64_t v, const EngineOptions& options, int num_ranks) {
    const auto threads =
        static_cast<std::uint64_t>(options.threads_per_rank);
    const auto t = static_cast<std::size_t>(
        stream_owner(v, static_cast<std::uint64_t>(num_ranks) * threads) %
        threads);
    if (t >= workspaces_.size()) workspaces_.resize(t + 1);
    if (workspaces_[t] == nullptr)
      workspaces_[t] = std::make_shared<Workspace>(num_vertices_);
    return workspaces_[t];
  }

 private:
  std::uint32_t num_vertices_;
  std::vector<std::shared_ptr<Workspace>> workspaces_;
};

template <typename Frame>
struct EngineResult {
  Frame aggregate;  // consistent final state (identical on every rank)
  /// This rank's own aggregated samples - valid on every rank when
  /// EngineOptions::local_aggregates is set (empty otherwise). The
  /// elementwise sum of all ranks' local aggregates equals `aggregate`.
  Frame local_aggregate;
  std::uint64_t epochs = 0;
  std::uint64_t samples_attempted = 0;  // all ranks (valid at rank 0)
  /// Payload moved over the communicators this engine used, including the
  /// hierarchical node and leader communicators (cumulative over the
  /// comm's lifetime).
  std::uint64_t comm_bytes = 0;
  /// Per-collective breakdown of comm_bytes (dense reductions vs sparse
  /// merge reductions vs window/p2p vs broadcasts).
  mpisim::CommVolume comm_volume{};
  PhaseTimer phases{};
  double total_seconds = 0.0;
};

namespace detail {

/// The streams a physical thread owns, with their exact per-epoch shares
/// (used in deterministic mode; free-running threads own exactly one).
template <typename Sampler>
struct ThreadStreams {
  struct Stream {
    Sampler sampler;
    std::uint64_t share;
  };
  std::vector<Stream> streams;

  template <typename Frame>
  std::uint64_t sample_shares(Frame& frame) {
    std::uint64_t count = 0;
    for (Stream& stream : streams) {
      for (std::uint64_t i = 0; i < stream.share; ++i)
        stream.sampler.sample(frame);
      count += stream.share;
    }
    return count;
  }
};

/// Builds each local thread's stream set: stream v goes to global thread
/// v mod PT, with its exact share of `total` samples. Calibration and the
/// epoch loop MUST use this same assignment, or deterministic-mode runs
/// diverge across backends.
template <typename MakeSampler>
auto assign_streams(int rank, int num_threads, std::uint64_t total_threads,
                    std::uint64_t streams, std::uint64_t total,
                    MakeSampler&& make_sampler) {
  using Sampler = std::decay_t<decltype(make_sampler(std::uint64_t{0}))>;
  std::vector<ThreadStreams<Sampler>> thread_streams(num_threads);
  for (std::uint64_t v = 0; v < streams; ++v) {
    const std::uint64_t owner = stream_owner(v, total_threads);
    if (owner / num_threads != static_cast<std::uint64_t>(rank)) continue;
    thread_streams[owner % num_threads].streams.push_back(
        {make_sampler(v), stream_share(total, v, streams)});
  }
  return thread_streams;
}

}  // namespace detail

/// Parallel calibration sampling (the engine's calibration-phase hook):
/// distributes `total_budget` samples over the run's streams, samples them
/// with all threads in parallel, and reduces the frames to world rank 0.
/// The returned frame holds the full aggregate at rank 0 and this rank's
/// local aggregate elsewhere. Collective when `world` is multi-rank.
template <typename Frame, typename MakeSampler>
Frame calibrate(mpisim::Comm* world, const Frame& prototype,
                MakeSampler&& make_sampler, std::uint64_t total_budget,
                const EngineOptions& options) {
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const int num_threads = options.threads_per_rank;
  const auto total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  const std::uint64_t streams = num_streams(options, num_ranks);

  std::vector<Frame> frames(num_threads, prototype);
  for (Frame& frame : frames) frame.clear();

  auto thread_streams = detail::assign_streams(
      rank, num_threads, total_threads, streams, total_budget, make_sampler);

  auto worker = [&](int t) { thread_streams[t].sample_shares(frames[t]); };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& thread : pool) thread.join();

  Frame local(prototype);
  local.clear();
  for (const Frame& frame : frames) local.merge(frame);
  if (num_ranks <= 1) return local;

  static_assert(DenseReducible<Frame>,
                "Frame lacks the dense interface (frame_traits.hpp)");
  Frame aggregate(prototype);
  aggregate.clear();
  if constexpr (WireSerializable<Frame>) {
    if (uses_wire_images<Frame>(options.frame_rep)) {
      std::vector<std::uint64_t> image;
      local.encode(image, options.frame_rep);
      const auto merge_image = [&](int,
                                   std::span<const std::uint64_t> contribution) {
        aggregate.decode_add(contribution);
      };
      if (options.tree_radix >= 2) {
        // By-value captures: the stored combiner runs at the *last*
        // arrival, possibly after fast non-root ranks left this scope.
        const std::size_t dense_words = local.dense_words();
        const double densify = densify_threshold_of(local);
        world->reduce_merge_tree(
            std::span<const std::uint64_t>(image),
            [dense_words, densify](std::vector<std::uint64_t>& acc,
                                   std::span<const std::uint64_t> in) {
              epoch::merge_images(acc, in, dense_words, densify);
            },
            merge_image, 0, options.tree_radix);
      } else {
        world->reduce_merge(std::span<const std::uint64_t>(image),
                            merge_image, 0);
      }
      return world->rank() == 0 ? aggregate : local;
    }
  }
  std::vector<std::uint64_t> reduced(local.raw().size());
  world->reduce(std::span<const std::uint64_t>(local.raw()),
                std::span<std::uint64_t>(reduced), 0);
  if (world->rank() == 0) aggregate.add_dense(reduced);
  return world->rank() == 0 ? aggregate : local;
}

/// Algorithm 2: epoch-based adaptive sampling until the stop rule fires.
/// Pass world == nullptr for a communicator-free (seq/shm) run.
template <typename Frame, typename MakeSampler, typename StopFn>
EngineResult<Frame> run_epochs(mpisim::Comm* world, const Frame& prototype,
                               MakeSampler&& make_sampler,
                               StopFn&& should_stop,
                               const EngineOptions& options) {
  static_assert(DenseReducible<Frame>,
                "Frame lacks the dense interface (frame_traits.hpp)");
  DISTBC_ASSERT(options.threads_per_rank >= 1);
  DISTBC_ASSERT_MSG(options.deterministic || options.virtual_streams == 0,
                    "virtual streams require deterministic mode");
  WallTimer total_timer;
  EngineResult<Frame> result{.aggregate = prototype,
                             .local_aggregate = prototype};
  result.aggregate.clear();
  result.local_aggregate.clear();
  // Whether epoch snapshots cross the wire as variable-length images
  // (sparse delta frames / auto densification) instead of the classic
  // fixed-size elementwise reduction.
  const bool wire_images = uses_wire_images<Frame>(options.frame_rep);

  const int num_ranks = world != nullptr ? world->size() : 1;
  const int rank = world != nullptr ? world->rank() : 0;
  const int num_threads = options.threads_per_rank;
  const bool is_root = rank == 0;
  const bool multi_rank = num_ranks > 1;
  const auto total_threads =
      static_cast<std::uint64_t>(num_ranks) * num_threads;
  const std::uint64_t streams = num_streams(options, num_ranks);

  // Total epoch length (§IV-D), clamped so adaptive rules get their first
  // stopping check before easy instances sample far past termination.
  std::uint64_t n0_total =
      epoch_length(options.epoch_base, options.epoch_exponent, streams);
  if (options.max_epoch_length != 0)
    n0_total = std::max<std::uint64_t>(
        1, std::min(n0_total, options.max_epoch_length));
  // Free-running mode: every physical thread samples at the same rate and
  // thread zero's fixed share paces the epoch.
  const std::uint64_t n0_share =
      std::max<std::uint64_t>(1, (n0_total + total_threads - 1) /
                                     total_threads);

  // Stream ownership: stream v belongs to global thread v mod PT. In
  // free-running mode streams == PT, so thread (rank, t) owns exactly
  // stream rank * T + t - the unified RNG-stream derivation rule.
  auto thread_streams = detail::assign_streams(
      rank, num_threads, total_threads, streams, n0_total, make_sampler);

  Hierarchy hierarchy;
  if (options.hierarchical && multi_rank)
    hierarchy.init(*world, result.aggregate.raw().size());

  epoch::EpochManager<Frame> manager(num_threads, prototype);
  std::vector<std::uint64_t> taken(num_threads, 0);

  // Worker threads (t != 0). Free-running: sample continuously, joining
  // epoch transitions wait-free. Deterministic: contribute the exact
  // per-stream shares, then wait for thread zero to force the transition.
  auto worker_main = [&](int t) {
    std::uint32_t epoch = 0;
    std::uint64_t count = 0;
    if (options.deterministic) {
      while (true) {
        count += thread_streams[t].sample_shares(manager.frame(t, epoch));
        while (!manager.check_transition(t, epoch)) {
          if (manager.stopped()) {
            taken[t] = count;
            return;
          }
          std::this_thread::yield();
        }
        ++epoch;
      }
    }
    auto& stream = thread_streams[t].streams.front();
    while (!manager.stopped()) {
      stream.sampler.sample(manager.frame(t, epoch));
      ++count;
      if (manager.check_transition(t, epoch)) ++epoch;
    }
    taken[t] = count;
  };
  std::vector<std::thread> workers;
  workers.reserve(num_threads - 1);
  for (int t = 1; t < num_threads; ++t) workers.emplace_back(worker_main, t);

  // Thread zero: the main loop of Algorithm 2.
  {
    Frame snapshot(prototype);   // S^e_loc: this rank's epoch aggregate
    Frame epoch_agg(prototype);  // S^e: global epoch aggregate (at root)
    std::vector<std::uint64_t> wire_buffer;  // reused encode scratch
    // Reused target of the dense reductions; epoch_agg is rebuilt from it.
    std::vector<std::uint64_t> dense_buffer;
    if (multi_rank && !wire_images)
      dense_buffer.assign(prototype.raw().size(), 0);
    std::uint8_t done_flag = 0;
    std::uint32_t epoch = 0;
    std::uint64_t count = 0;

    // One overlap sample into the *next* epoch's frame (Algorithm 2 lines
    // 15, 21, 27); disabled in deterministic mode, where communication
    // waits must not inject timing-dependent samples. The yield matters on
    // oversubscribed hosts (cores < ranks x threads): without it the spin
    // starves peers that still need the CPU to reach the collective, and
    // the stretched wait floods the next epoch with overlap samples.
    auto overlap_sample = [&] {
      if (!options.deterministic && !thread_streams[0].streams.empty()) {
        thread_streams[0].streams.front().sampler.sample(
            manager.frame(0, epoch + 1));
        ++count;
      }
      std::this_thread::yield();
    };

    // One §IV-F strategy dispatch serving both wire formats: the callers
    // supply the blocking reduction and the non-blocking starter for
    // their payload (elementwise spans or encoded images).
    auto run_aggregation = [&](mpisim::Comm& global, auto&& blocking_reduce,
                               auto&& start_reduce) {
      switch (options.aggregation) {
        case Aggregation::kIbarrierReduce: {
          result.phases.timed(Phase::kBarrier, [&] {
            mpisim::Request barrier = global.ibarrier();
            while (!barrier.test()) overlap_sample();
          });
          result.phases.timed(Phase::kReduction, blocking_reduce);
          break;
        }
        case Aggregation::kIreduce: {
          result.phases.timed(Phase::kReduction, [&] {
            mpisim::Request reduce = start_reduce();
            while (!reduce.test()) overlap_sample();
          });
          break;
        }
        case Aggregation::kBlocking: {
          result.phases.timed(Phase::kReduction, blocking_reduce);
          break;
        }
      }
    };

    while (true) {
      result.phases.timed(Phase::kSampling, [&] {
        if (options.deterministic) {
          count += thread_streams[0].sample_shares(manager.frame(0, epoch));
        } else {
          auto& stream = thread_streams[0].streams.front();
          for (std::uint64_t i = 0; i < n0_share; ++i) {
            stream.sampler.sample(manager.frame(0, epoch));
            ++count;
          }
        }
      });

      // Epoch transition, overlapped with sampling (paper Figure 1).
      result.phases.timed(Phase::kEpochTransition, [&] {
        manager.force_transition(epoch);
        while (!manager.transition_done(epoch)) overlap_sample();
      });
      snapshot.clear();
      manager.collect(epoch, snapshot);
      // Per-rank partials, captured before the hierarchy can replace a
      // leader's snapshot with its node aggregate.
      if (options.local_aggregates) result.local_aggregate.merge(snapshot);

      if (!multi_rank) {
        // Null/1-rank communicator: the epoch aggregate is already global.
        result.aggregate.merge(snapshot);
        done_flag = result.phases.timed(Phase::kStopCheck, [&] {
          return should_stop(std::as_const(result.aggregate)) ||
                         result.epochs + 1 >= options.max_epochs
                     ? 1
                     : 0;
        });
      } else {
        // Node-local pre-aggregation via the shared window (§IV-E).
        bool in_global = true;
        if (hierarchy.active())
          in_global = hierarchy.pre_reduce(snapshot, options.frame_rep);

        // Effective radix of the global merge. Under the two-level path
        // (hierarchy active) the leader hop class may pick its own radix;
        // 0 inherits tree_radix so single-knob configurations keep their
        // established shape.
        const int radix = hierarchy.active() && options.leader_radix != 0
                              ? options.leader_radix
                              : options.tree_radix;

        // Broadcast with the strategy-matching overlap behavior - the
        // downward leg of paths that merge toward a root.
        auto distribute = [&](mpisim::Comm& comm, auto span) {
          if (options.aggregation == Aggregation::kBlocking) {
            // §IV-F's fully blocking variant: no overlap anywhere, the
            // distribution legs included.
            comm.bcast(span, 0);
          } else {
            mpisim::Request bcast = comm.ibcast(span, 0);
            while (!bcast.test()) overlap_sample();
          }
        };
        // Ships epoch_agg from `comm` rank zero to every rank of `comm`
        // as a length-prefixed wire image; receivers rebuild their
        // epoch_agg from it. Used by the tree path's downward leg and the
        // two-level path's intra-node redistribution.
        auto distribute_image = [&](mpisim::Comm& comm) {
          if constexpr (WireSerializable<Frame>) {
            const bool sender = comm.rank() == 0;
            if (sender) {
              wire_buffer.clear();
              epoch_agg.encode(wire_buffer, options.frame_rep);
            }
            std::uint64_t words = wire_buffer.size();
            distribute(comm, std::span{&words, 1});
            if (!sender) wire_buffer.resize(words);
            distribute(comm, std::span<std::uint64_t>(wire_buffer));
            if (!sender) {
              epoch_agg.clear();
              epoch_agg.decode_add(
                  std::span<const std::uint64_t>(wire_buffer));
            }
          }
        };

        // Global aggregation (§IV-F strategies), decentralized: every
        // participant ends the phase holding the identical merged epoch
        // aggregate. With hierarchy the merge runs on the node-leader
        // communicator whose rank zero is world rank zero. The wire-image
        // path ships the snapshot's encoded image (sparse deltas or
        // dense, per the representation policy); flat merges ride the
        // all-reduce flavors (no root hotspot at all), the radix tree
        // merges toward rank zero and broadcasts the merged image back
        // down. The classic path all-reduces the flat frame elementwise
        // into dense_buffer and rebuilds epoch_agg from it.
        if (in_global && wire_images) {
          if constexpr (WireSerializable<Frame>) {
            mpisim::Comm& global =
                hierarchy.active() ? hierarchy.global() : *world;
            wire_buffer.clear();
            snapshot.encode(wire_buffer, options.frame_rep);
            epoch_agg.clear();
            auto merge_image = [&](int,
                                   std::span<const std::uint64_t> image) {
              epoch_agg.decode_add(image);
            };
            const std::span<const std::uint64_t> send(wire_buffer);
            if (radix >= 2) {
              // Tree merge: images combine at interior ranks (with the
              // frame's own densify policy), so the root ingests only the
              // top-of-tree merged images. The combiner captures by VALUE:
              // the slot stores the first poster's closure and invokes it
              // at the last arrival, by which time a fast non-root rank's
              // non-blocking aggregation has completed and this epoch
              // scope is gone (use-after-scope otherwise; the parity
              // tests run this shape under ASan).
              const std::size_t dense_words = snapshot.dense_words();
              const double densify = densify_threshold_of(snapshot);
              auto combine_image = [dense_words, densify](
                                       std::vector<std::uint64_t>& acc,
                                       std::span<const std::uint64_t> in) {
                epoch::merge_images(acc, in, dense_words, densify);
              };
              run_aggregation(
                  global,
                  [&] {
                    global.reduce_merge_tree(send, combine_image, merge_image,
                                             0, radix);
                  },
                  [&] {
                    return global.ireduce_merge_tree(send, combine_image,
                                                     merge_image, 0, radix);
                  });
              // Downward leg: the merged image returns to every
              // participant, completing the all-reduce semantics the flat
              // flavor gets natively.
              result.phases.timed(Phase::kBroadcast,
                                  [&] { distribute_image(global); });
            } else {
              run_aggregation(
                  global,
                  [&] { global.allreduce_merge(send, merge_image); },
                  [&] {
                    return global.iallreduce_merge(send, merge_image);
                  });
            }
          }
        } else if (in_global) {
          mpisim::Comm& global =
              hierarchy.active() ? hierarchy.global() : *world;
          const std::span<const std::uint64_t> send(snapshot.raw());
          const std::span<std::uint64_t> recv(dense_buffer);
          run_aggregation(
              global, [&] { global.allreduce(send, recv); },
              [&] { return global.iallreduce(send, recv); });
          epoch_agg.clear();
          epoch_agg.add_dense(dense_buffer);
        }

        // Two-level downward leg: leaders now hold the global aggregate;
        // redistribute it over the intra-node communicator so non-leader
        // ranks hold it too (wire image when the frame serializes under
        // this representation; otherwise the leader's dense_buffer, which
        // still holds the all-reduced vector, as a flat broadcast).
        if (hierarchy.active()) {
          result.phases.timed(Phase::kBroadcast, [&] {
            if (wire_images) {
              distribute_image(hierarchy.node());
            } else {
              distribute(hierarchy.node(),
                         std::span<std::uint64_t>(dense_buffer));
              if (!in_global) {
                epoch_agg.clear();
                epoch_agg.add_dense(dense_buffer);
              }
            }
          });
        }

        // Decentralized termination: every rank holds the identical
        // merged aggregate and evaluates the stopping rule on it, so all
        // ranks reach the same verdict independently - the rank-0 verdict
        // broadcast this protocol replaces cost a latency-bound
        // synchronization per epoch at exactly the moment every rank was
        // about to diverge into the next epoch's sampling.
        result.aggregate.merge(epoch_agg);
        done_flag = result.phases.timed(Phase::kStopCheck, [&] {
          return should_stop(std::as_const(result.aggregate)) ||
                         result.epochs + 1 >= options.max_epochs
                     ? 1
                     : 0;
        });
      }

      ++result.epochs;
      if (done_flag != 0) {
        manager.signal_stop();
        break;
      }
      ++epoch;
    }
    taken[0] = count;
  }
  for (auto& worker : workers) worker.join();

  // Work accounting (Figure 3b): samples attempted by all threads of all
  // ranks, including overlap samples that were never aggregated.
  std::uint64_t local_taken = 0;
  for (const std::uint64_t t : taken) local_taken += t;
  if (multi_rank) {
    std::uint64_t world_taken = 0;
    world->reduce(std::span<const std::uint64_t>(&local_taken, 1),
                  std::span{&world_taken, 1}, 0);
    result.samples_attempted = is_root ? world_taken : local_taken;
    result.comm_volume = world->stats().volume();
    result.comm_volume += hierarchy.volume();
    result.comm_bytes = result.comm_volume.total();
  } else {
    result.samples_attempted = local_taken;
  }
  result.total_seconds = total_timer.elapsed_s();
  return result;
}

}  // namespace distbc::engine
