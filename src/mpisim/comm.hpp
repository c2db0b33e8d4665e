// Simulated MPI communicator.
//
// mpisim substitutes for an MPI library on a cluster (none is available in
// this environment): ranks are threads inside one process, and every data
// exchange goes through explicit slot-based collectives with an interconnect
// cost model (see network.hpp). The API mirrors the MPI subset the paper's
// algorithm needs — Reduce / Ireduce / Ibarrier / Bcast / Ibcast /
// communicator split — plus the all-reduce family (allreduce /
// reduce_scatter / all_gather / allreduce_merge, priced as
// recursive-halving/doubling butterflies) that decentralized termination
// rides, and point-to-point send/recv for tests.
//
// Semantics notes:
//  * Collectives must be called by all ranks of the communicator in the
//    same order (standard MPI requirement); slots are matched by a per-rank
//    call counter.
//  * Sends are eager: the contribution is copied into the slot at post time,
//    so a non-root Ireduce completes after its own (modeled) injection cost
//    and the caller may immediately reuse its buffer — same guarantee real
//    MPI gives on request completion.
//  * The root's completion time is the last arrival plus a modeled
//    tree-reduction cost; blocking calls sleep until then, non-blocking
//    requests report done only once the deadline passed. This makes
//    communication/computation overlap behave as on a real network.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mpisim/network.hpp"
#include "mpisim/stats.hpp"
#include "support/assert.hpp"

namespace distbc::mpisim {

enum class ReduceOp : std::uint8_t { kSum, kMin, kMax };

namespace detail {

using Clock = std::chrono::steady_clock;
using CombineFn = void (*)(void* acc, const void* in, std::size_t count);

template <typename T, ReduceOp Op>
void combine_impl(void* acc_void, const void* in_void, std::size_t count) {
  T* acc = static_cast<T*>(acc_void);
  const T* in = static_cast<const T*>(in_void);
  for (std::size_t i = 0; i < count; ++i) {
    if constexpr (Op == ReduceOp::kSum) {
      acc[i] += in[i];
    } else if constexpr (Op == ReduceOp::kMin) {
      acc[i] = in[i] < acc[i] ? in[i] : acc[i];
    } else {
      acc[i] = in[i] > acc[i] ? in[i] : acc[i];
    }
  }
}

template <typename T>
CombineFn combine_fn(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return &combine_impl<T, ReduceOp::kSum>;
    case ReduceOp::kMin:
      return &combine_impl<T, ReduceOp::kMin>;
    case ReduceOp::kMax:
      return &combine_impl<T, ReduceOp::kMax>;
  }
  return nullptr;
}

enum class SlotKind : std::uint8_t { kBarrier, kReduce, kReduceMerge,
                                     kTreeMerge, kGatherv, kBcast,
                                     kAllreduce, kReduceScatter, kAllGather,
                                     kAllreduceMerge, kSplit, kWindow };

/// Root-side consumer of one variable-length contribution:
/// (source rank, payload pointer, payload bytes).
using MergeBytesFn =
    std::function<void(int, const std::byte*, std::size_t)>;

/// Interior-hop combiner of a tree merge: additively folds one upward
/// image into the accumulator, re-encoding in place (e.g. sparse merge
/// join with mid-tree densification).
using CombineImagesFn =
    std::function<void(std::vector<std::byte>&, const std::byte*,
                       std::size_t)>;

struct Slot {
  SlotKind kind{};
  int arrived = 0;
  int departed = 0;
  bool all_arrived = false;
  bool action_done = false;  // root combine / payload availability
  Clock::time_point ready_time{};
  std::vector<Clock::time_point> rank_ready;  // per-rank completion deadline

  // Reduce state.
  std::size_t bytes = 0;
  std::size_t count = 0;
  CombineFn combine = nullptr;
  int root = -1;
  bool nonblocking = false;  // Ireduce: §IV-F progression penalty applies
  std::vector<std::vector<std::byte>> contribs;
  std::byte* root_recv = nullptr;

  // Bcast payload (copied from the root).
  std::vector<std::byte> payload;

  // Variable-length merge state (kReduceMerge / kGatherv / kTreeMerge):
  // the root's per-contribution consumer, run at completion.
  MergeBytesFn merge;

  // Decentralized merge state (kAllreduceMerge): every rank's own
  // consumer, replaying all contributions in rank order at that rank's
  // completion (contributions outlive every consumer: the slot is erased
  // only once all ranks departed).
  std::vector<MergeBytesFn> rank_merge;

  // Tree-merge state (kTreeMerge): fan-in, the interior-hop combiner
  // (taken from the first posting rank; all ranks must pass equivalent
  // callables), and the merged top-of-tree images awaiting the root.
  int radix = 0;
  CombineImagesFn combine_images;
  std::vector<std::pair<int, std::vector<std::byte>>> root_inbox;

  // Deferred tree-merge schedule (kTreeMerge): contributions in
  // heap-position order, per-position completion clocks relative to
  // tree_start (the last arrival), and a descending cursor over the
  // positions still to process (children before parents). Interior
  // combines run in advance_tree as their modeled due times pass - any
  // rank's poll makes progress, overlapping combines with the caller's
  // sampling - instead of all at once inside the last-arrival critical
  // section; tree_priced flips once the root deadline is known.
  std::vector<std::vector<std::byte>> tree_up;
  std::vector<std::chrono::nanoseconds> tree_finish;
  Clock::time_point tree_start{};
  int tree_cursor = 0;
  bool tree_scheduled = false;
  bool tree_priced = false;

  // Split state.
  std::vector<std::pair<int, int>> color_key;  // per-rank (color, key)
  std::map<int, std::shared_ptr<struct CommState>> children;

  // Window creation state.
  std::shared_ptr<void> window;
};

struct P2pMessage {
  std::vector<std::byte> bytes;
  Clock::time_point deliver_time;
};

/// Backing storage of an RMA-style shared window (paper §IV-E: passive
/// target one-sided communication over node-local shared memory).
struct WindowState {
  std::mutex mu;
  std::vector<std::byte> data;
  /// Touched-slot tracking for windowed sparse read-back (one bit per
  /// element slot, maintained by Window<T>): scatter-accumulates set bits;
  /// a full-span accumulate sets dense_touched instead (the union is the
  /// whole window, so leaders fall back to the dense read).
  std::vector<std::uint64_t> touched_bits;
  bool dense_touched = false;
};

struct CommState {
  CommState(std::vector<int> node_of_rank_in, NetworkModel model_in);

  [[nodiscard]] int size() const {
    return static_cast<int>(node_of_rank.size());
  }

  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, Slot> slots;
  std::map<std::tuple<int, int, int>, std::deque<P2pMessage>> mailboxes;

  std::vector<int> node_of_rank;
  int num_nodes = 1;
  int max_ranks_per_node = 1;
  NetworkModel model;
  CommStats stats;
};

}  // namespace detail

class Comm;

/// Handle for a pending non-blocking operation. Copyable; all copies refer
/// to the same pending operation.
class Request {
 public:
  Request() = default;

  /// Polls for completion; performs the completion action (root combine,
  /// bcast copy-out) exactly once. Idempotent after success.
  bool test();

  /// Blocks until the operation completes.
  void wait();

  [[nodiscard]] bool valid() const { return impl_ != nullptr; }

  /// Implementation detail (public so the out-of-line pollers can name it;
  /// not part of the user API).
  struct Impl {
    std::shared_ptr<detail::CommState> state;
    std::uint64_t ticket = 0;
    int rank = -1;
    std::byte* recv = nullptr;  // bcast / all-reduce destination, if any
    bool done = false;
  };

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Sentinel color for split(): the calling rank joins no child communicator.
inline constexpr int kUndefinedColor = -1;

class Comm {
 public:
  Comm() = default;  // invalid communicator (e.g. split with undefined color)

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return state_->size(); }
  [[nodiscard]] int node() const { return state_->node_of_rank[rank_]; }
  [[nodiscard]] int num_nodes() const { return state_->num_nodes; }
  /// Largest number of ranks sharing one node - the cluster-shape fact
  /// collective cost charging is based on.
  [[nodiscard]] int max_ranks_per_node() const {
    return state_->max_ranks_per_node;
  }

  // --- Collectives -------------------------------------------------------

  void barrier();
  [[nodiscard]] Request ibarrier();

  template <typename T>
  void reduce(std::span<const T> send, std::span<T> recv, int root,
              ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(rank_ != root || recv.size() == send.size());
    reduce_bytes_impl(as_bytes_ptr(send.data()), send.size() * sizeof(T),
                      send.size(), as_bytes_ptr_mut(recv.data()),
                      detail::combine_fn<T>(op), root, /*blocking=*/true);
  }

  template <typename T>
  [[nodiscard]] Request ireduce(std::span<const T> send, std::span<T> recv,
                                int root, ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(rank_ != root || recv.size() == send.size());
    return ireduce_bytes_impl(as_bytes_ptr(send.data()),
                              send.size() * sizeof(T), send.size(),
                              as_bytes_ptr_mut(recv.data()),
                              detail::combine_fn<T>(op), root);
  }

  /// All-reduce: every rank receives the full reduction. One collective,
  /// priced as a recursive-halving reduce-scatter followed by a
  /// recursive-doubling all-gather (butterfly alpha-beta accounting) -
  /// no root hotspot, so nothing lands in root_ingest_bytes. The shared
  /// reduction combines contributions in rank order, so the result is
  /// bitwise identical on every rank to a reduce-to-rank-0 + broadcast.
  template <typename T>
  void allreduce(std::span<const T> send, std::span<T> recv,
                 ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(recv.size() == send.size());
    allreduce_bytes_impl(as_bytes_ptr(send.data()), send.size() * sizeof(T),
                         send.size(), as_bytes_ptr_mut(recv.data()),
                         detail::combine_fn<T>(op));
  }

  /// Non-blocking all-reduce; every rank completes once the butterfly's
  /// modeled deadline passes (§IV-F progression penalty and poll tax
  /// apply to every rank - all of them progress the butterfly).
  template <typename T>
  [[nodiscard]] Request iallreduce(std::span<const T> send, std::span<T> recv,
                                   ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(recv.size() == send.size());
    return iallreduce_bytes_impl(as_bytes_ptr(send.data()),
                                 send.size() * sizeof(T), send.size(),
                                 as_bytes_ptr_mut(recv.data()),
                                 detail::combine_fn<T>(op));
  }

  /// Reduce-scatter: the elementwise reduction of every rank's `send`
  /// (size() * recv.size() elements each) scattered in rank-order blocks;
  /// rank r receives block r. One recursive-halving butterfly phase.
  template <typename T>
  void reduce_scatter(std::span<const T> send, std::span<T> recv,
                      ReduceOp op = ReduceOp::kSum) {
    DISTBC_ASSERT(send.size() ==
                  recv.size() * static_cast<std::size_t>(size()));
    reduce_scatter_bytes_impl(as_bytes_ptr(send.data()),
                              send.size() * sizeof(T), send.size(),
                              as_bytes_ptr_mut(recv.data()),
                              detail::combine_fn<T>(op));
  }

  /// All-gather: the rank-order concatenation of every rank's `send`
  /// (equal sizes) delivered to every rank; recv holds size() *
  /// send.size() elements. One recursive-doubling butterfly phase.
  /// reduce_scatter + all_gather compose to allreduce.
  template <typename T>
  void all_gather(std::span<const T> send, std::span<T> recv) {
    DISTBC_ASSERT(recv.size() ==
                  send.size() * static_cast<std::size_t>(size()));
    all_gather_bytes_impl(as_bytes_ptr(send.data()), send.size() * sizeof(T),
                          as_bytes_ptr_mut(recv.data()));
  }

  template <typename T>
  void bcast(std::span<T> buffer, int root) {
    bcast_bytes_impl(as_bytes_ptr_mut(buffer.data()),
                     buffer.size() * sizeof(T), root, /*blocking=*/true);
  }

  template <typename T>
  [[nodiscard]] Request ibcast(std::span<T> buffer, int root) {
    return ibcast_bytes_impl(as_bytes_ptr_mut(buffer.data()),
                             buffer.size() * sizeof(T), root);
  }

  // --- Variable-length collectives (sparse frame images, §IV-F over the
  // --- delta representation) ---------------------------------------------
  //
  // Unlike the fixed-size collectives above, every rank may contribute a
  // different element count. Contributions are eager (buffer reusable on
  // return/completion); the root's completion deadline is the last arrival
  // plus the alpha-beta tree cost charged at the *largest* contribution
  // (the reduction tree's critical path carries the biggest payload; with
  // auto-densifying frames, merged payloads stay within the densify
  // threshold of the dense frame, bounding union growth). Non-root bytes
  // are accounted per path (CommStats::reduce_merge_bytes/gatherv_bytes).

  /// Sparse-merge reduction: `merge(src_rank, payload)` is invoked at the
  /// root exactly once per rank, in rank order, when the reduction
  /// completes (inside the blocking call, or the completing test()/wait()
  /// of the non-blocking form). `merge` runs under the communicator lock
  /// and must not call back into the communicator. Non-roots may pass any
  /// callable; it is ignored.
  template <typename T, typename MergeFn>
  void reduce_merge(std::span<const T> send, MergeFn&& merge, int root) {
    mergev_bytes_impl(detail::SlotKind::kReduceMerge,
                      as_bytes_ptr(send.data()), send.size() * sizeof(T),
                      erase_merge<T>(std::forward<MergeFn>(merge), root),
                      root);
  }

  /// Non-blocking merge reduction; progresses like Ireduce (§IV-F
  /// progression penalty and poll tax apply).
  template <typename T, typename MergeFn>
  [[nodiscard]] Request ireduce_merge(std::span<const T> send,
                                      MergeFn&& merge, int root) {
    return imergev_bytes_impl(detail::SlotKind::kReduceMerge,
                              as_bytes_ptr(send.data()),
                              send.size() * sizeof(T),
                              erase_merge<T>(std::forward<MergeFn>(merge),
                                             root),
                              root);
  }

  /// Decentralized merge reduction: like reduce_merge, but EVERY rank
  /// supplies its own `merge(src_rank, payload)` consumer, and each
  /// rank's consumer replays all size() contributions in rank order at
  /// that rank's own completion - identical inputs in identical order, so
  /// every rank reconstructs the root-side aggregate bitwise. Priced as
  /// an all-reduce butterfly at the largest contribution; there is no
  /// root, so nothing lands in root_ingest_bytes (the decentralized
  /// termination path this exists for). Consumers run under the
  /// communicator lock and must not call back into the communicator.
  template <typename T, typename MergeFn>
  void allreduce_merge(std::span<const T> send, MergeFn&& merge) {
    allmerge_bytes_impl(as_bytes_ptr(send.data()), send.size() * sizeof(T),
                        erase_merge_all<T>(std::forward<MergeFn>(merge)));
  }

  /// Non-blocking decentralized merge; progresses like Iallreduce (§IV-F
  /// progression penalty, and every rank pays the poll tax). The consumer
  /// must own its state (capture by value): it runs at this rank's
  /// completing test()/wait(), which other ranks' polls may precede.
  template <typename T, typename MergeFn>
  [[nodiscard]] Request iallreduce_merge(std::span<const T> send,
                                         MergeFn&& merge) {
    return iallmerge_bytes_impl(
        as_bytes_ptr(send.data()), send.size() * sizeof(T),
        erase_merge_all<T>(std::forward<MergeFn>(merge)));
  }

  /// Tree-merge reduction: contributions combine at interior ranks of a
  /// radix-`radix` tree rooted at `root` instead of all landing at the
  /// root. Every rank supplies the same image combiner
  /// `combine(acc, contribution)` - an additive in-place re-encode (e.g.
  /// epoch::merge_images, which densifies mid-tree once the merged image
  /// stops paying). Each tree hop is charged a point-to-point alpha-beta
  /// cost and the completion deadline follows the tree's critical path, so
  /// latency grows with depth (log_radix P) while the root ingests only
  /// its direct children's merged images (root_ingest_bytes) instead of
  /// every per-rank payload. At completion the root's `merge` consumer
  /// receives the root's own contribution (src = root) and one merged
  /// image per direct child subtree (src = that child's rank). Both
  /// callables run under the communicator lock and must not call back
  /// into the communicator; decoding must be order-independent (additive).
  /// Lifetime: the slot stores the FIRST poster's combiner and invokes it
  /// at the last arrival - by which time a non-root's non-blocking form
  /// may already have completed - so the combiner must own its state
  /// (capture by value), never reference the caller's stack.
  template <typename T, typename CombineFn, typename MergeFn>
  void reduce_merge_tree(std::span<const T> send, CombineFn&& combine,
                         MergeFn&& merge, int root, int radix) {
    tree_bytes_impl(as_bytes_ptr(send.data()), send.size() * sizeof(T),
                    erase_combine<T>(std::forward<CombineFn>(combine)),
                    erase_merge<T>(std::forward<MergeFn>(merge), root), root,
                    radix);
  }

  /// Non-blocking tree merge; progresses like Ireduce (§IV-F progression
  /// penalty and poll tax apply). Interior combines are charged as each
  /// subtree's modeled deadline passes - any rank's test() advances them,
  /// the same progress-polling hook the engine uses for ibcast - so their
  /// compute cost overlaps the caller's sampling instead of extending the
  /// completion deadline (the blocking form keeps combine time on the
  /// critical path).
  template <typename T, typename CombineFn, typename MergeFn>
  [[nodiscard]] Request ireduce_merge_tree(std::span<const T> send,
                                           CombineFn&& combine,
                                           MergeFn&& merge, int root,
                                           int radix) {
    return itree_bytes_impl(
        as_bytes_ptr(send.data()), send.size() * sizeof(T),
        erase_combine<T>(std::forward<CombineFn>(combine)),
        erase_merge<T>(std::forward<MergeFn>(merge), root), root, radix);
  }

  /// Variable-length gather: at the root, `recv` is resized to size() and
  /// recv[r] receives rank r's contribution; untouched at non-roots.
  template <typename T>
  void gatherv(std::span<const T> send, std::vector<std::vector<T>>& recv,
               int root) {
    mergev_bytes_impl(detail::SlotKind::kGatherv, as_bytes_ptr(send.data()),
                      send.size() * sizeof(T), erase_gather<T>(recv, root),
                      root);
  }

  /// Non-blocking gatherv; `recv` must stay alive until completion.
  template <typename T>
  [[nodiscard]] Request igatherv(std::span<const T> send,
                                 std::vector<std::vector<T>>& recv,
                                 int root) {
    return imergev_bytes_impl(detail::SlotKind::kGatherv,
                              as_bytes_ptr(send.data()),
                              send.size() * sizeof(T),
                              erase_gather<T>(recv, root), root);
  }

  // --- Point-to-point (used by tests) -------------------------------------

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    send_bytes_impl(as_bytes_ptr(data.data()), data.size() * sizeof(T), dst,
                    tag);
  }

  template <typename T>
  void recv(std::span<T> data, int src, int tag) {
    recv_bytes_impl(as_bytes_ptr_mut(data.data()), data.size() * sizeof(T),
                    src, tag);
  }

  // --- Topology ----------------------------------------------------------

  /// Splits into child communicators by color, ranked by (key, old rank).
  /// Ranks passing kUndefinedColor receive an invalid Comm.
  [[nodiscard]] Comm split(int color, int key);

  /// Child communicator of all ranks on this rank's node (paper §IV-E).
  [[nodiscard]] Comm split_by_node();

  /// Child communicator of the first rank of each node (the paper's global
  /// communicator for the inter-node reduction); other ranks get an
  /// invalid Comm.
  [[nodiscard]] Comm split_node_leaders();

  [[nodiscard]] CommStats& stats() { return state_->stats; }
  [[nodiscard]] const NetworkModel& network() const { return state_->model; }

  /// The interconnect model's charged duration for one collective over this
  /// communicator's topology moving `bytes` per hop - the analytic anchor
  /// the tune/ microbench reports its measurements against.
  [[nodiscard]] double modeled_collective_seconds(std::uint64_t bytes) const {
    return std::chrono::duration<double>(
               state_->model.collective_cost(bytes, state_->max_ranks_per_node,
                                             state_->num_nodes))
        .count();
  }

  /// Collective: creates (or attaches to) a shared window of `bytes` zeroed
  /// bytes. All ranks receive the same state. Used by Window<T>.
  [[nodiscard]] std::shared_ptr<detail::WindowState> window_collective(
      std::size_t bytes);

 private:
  friend class Runtime;
  template <typename T>
  friend class Window;

  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  static const std::byte* as_bytes_ptr(const void* p) {
    return static_cast<const std::byte*>(p);
  }
  static std::byte* as_bytes_ptr_mut(void* p) {
    return static_cast<std::byte*>(p);
  }

  std::uint64_t next_ticket() { return ticket_++; }

  /// A Request handle for a freshly posted non-blocking slot. `recv` is
  /// the completion destination of the all-reduce family (null for the
  /// rooted flavors, whose destination lives in the slot).
  [[nodiscard]] Request make_request(std::uint64_t ticket,
                                     std::byte* recv = nullptr);

  /// Wraps a typed merge callable as the byte-level consumer stored in the
  /// slot; non-roots carry an empty function (their callable is ignored).
  template <typename T, typename MergeFn>
  detail::MergeBytesFn erase_merge(MergeFn&& merge, int root) {
    if (rank_ != root) return {};
    return [m = std::forward<MergeFn>(merge)](int src, const std::byte* data,
                                              std::size_t bytes) mutable {
      m(src, std::span<const T>(reinterpret_cast<const T*>(data),
                                bytes / sizeof(T)));
    };
  }

  /// Like erase_merge, but every rank keeps its callable (the
  /// decentralized merge has a consumer per rank, not per root).
  template <typename T, typename MergeFn>
  detail::MergeBytesFn erase_merge_all(MergeFn&& merge) {
    return [m = std::forward<MergeFn>(merge)](int src, const std::byte* data,
                                              std::size_t bytes) mutable {
      m(src, std::span<const T>(reinterpret_cast<const T*>(data),
                                bytes / sizeof(T)));
    };
  }

  template <typename T>
  detail::MergeBytesFn erase_gather(std::vector<std::vector<T>>& recv,
                                    int root) {
    if (rank_ != root) return {};
    recv.assign(static_cast<std::size_t>(size()), {});
    return [&recv](int src, const std::byte* data, std::size_t bytes) {
      const T* typed = reinterpret_cast<const T*>(data);
      recv[static_cast<std::size_t>(src)].assign(typed,
                                                 typed + bytes / sizeof(T));
    };
  }

  /// Wraps a typed in-place image combiner as the byte-level callable the
  /// tree-merge slot stores (reused word scratch; images are word-typed at
  /// the caller, byte-typed in slot storage).
  template <typename T, typename CombineFn>
  detail::CombineImagesFn erase_combine(CombineFn&& combine) {
    return [c = std::forward<CombineFn>(combine), words = std::vector<T>()](
               std::vector<std::byte>& acc, const std::byte* in,
               std::size_t bytes) mutable {
      const T* acc_typed = reinterpret_cast<const T*>(acc.data());
      words.assign(acc_typed, acc_typed + acc.size() / sizeof(T));
      c(words, std::span<const T>(reinterpret_cast<const T*>(in),
                                  bytes / sizeof(T)));
      const auto* out = reinterpret_cast<const std::byte*>(words.data());
      acc.assign(out, out + words.size() * sizeof(T));
    };
  }

  // Byte-level data plane the typed templates above funnel into.
  void mergev_bytes_impl(detail::SlotKind kind, const std::byte* send,
                         std::size_t bytes, detail::MergeBytesFn merge,
                         int root);
  Request imergev_bytes_impl(detail::SlotKind kind, const std::byte* send,
                             std::size_t bytes, detail::MergeBytesFn merge,
                             int root);
  void tree_bytes_impl(const std::byte* send, std::size_t bytes,
                       detail::CombineImagesFn combine,
                       detail::MergeBytesFn merge, int root, int radix);
  Request itree_bytes_impl(const std::byte* send, std::size_t bytes,
                           detail::CombineImagesFn combine,
                           detail::MergeBytesFn merge, int root, int radix);

  void reduce_bytes_impl(const std::byte* send, std::size_t bytes,
                         std::size_t count, std::byte* recv,
                         detail::CombineFn combine, int root, bool blocking);
  Request ireduce_bytes_impl(const std::byte* send, std::size_t bytes,
                             std::size_t count, std::byte* recv,
                             detail::CombineFn combine, int root);
  void allreduce_bytes_impl(const std::byte* send, std::size_t bytes,
                            std::size_t count, std::byte* recv,
                            detail::CombineFn combine);
  Request iallreduce_bytes_impl(const std::byte* send, std::size_t bytes,
                                std::size_t count, std::byte* recv,
                                detail::CombineFn combine);
  void reduce_scatter_bytes_impl(const std::byte* send, std::size_t bytes,
                                 std::size_t count, std::byte* recv,
                                 detail::CombineFn combine);
  void all_gather_bytes_impl(const std::byte* send, std::size_t bytes,
                             std::byte* recv);
  void allmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                           detail::MergeBytesFn merge);
  Request iallmerge_bytes_impl(const std::byte* send, std::size_t bytes,
                               detail::MergeBytesFn merge);
  void bcast_bytes_impl(std::byte* buffer, std::size_t bytes, int root,
                        bool blocking);
  Request ibcast_bytes_impl(std::byte* buffer, std::size_t bytes, int root);
  void send_bytes_impl(const std::byte* data, std::size_t bytes, int dst,
                       int tag);
  void recv_bytes_impl(std::byte* data, std::size_t bytes, int src, int tag);

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
  std::uint64_t ticket_ = 0;
};

}  // namespace distbc::mpisim
