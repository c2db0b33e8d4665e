// CommBench-style collective microbenchmark over mpisim (tune/ layer 1).
//
// The engine's per-epoch aggregation uses a handful of communication
// patterns (paper §IV-E/F): a blocking Reduce, a poorly-progressing
// Ireduce, the Ibarrier + blocking Reduce combination, the termination
// Ibcast (the distribution primitive of the rooted paths), the
// hierarchical RMA-window pre-reduction, and the structured
// merge paths (radix-tree merge, and the two-level composition of node
// pre-reduction with a leader-level radix tree). Which of them is
// fastest depends on the cluster shape - rank count, ranks per node,
// sampling threads per rank, and how oversubscribed the substrate is -
// which the paper establishes by hand ablation. This microbenchmark
// measures each pattern on the actual substrate instead, CommBench-style:
// warmup rounds, measurement rounds, medians per message size.
//
// Measurement emulates the engine's epoch loop rather than timing bare
// collectives, because on a timeshared substrate the §IV-F effect is not
// visible in the wall time of one call: it lives in what the CPUs *produce*
// while communication is pending. Each round is a mini-epoch: every rank
// retires a quota of CPU-time work units (one rotating straggler per epoch
// models sampling imbalance), then aggregates via the pattern, polling
// non-blocking operations with further work units exactly as the engine's
// overlap sampling does. Overlap units are credited against the next
// epoch's quota - they are real samples that advance termination. The
// metric is the per-epoch wall time in excess of a communication-free
// baseline epoch: a blocking Reduce burns the stragglers' wait, an
// Ireduce's polls pay the progression tax, Ibarrier + Reduce converts the
// wait into credited work.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mpisim/network.hpp"

namespace distbc::tune {

/// The aggregation-path patterns the engine can be configured to use.
enum class Pattern : std::uint8_t {
  kReduce,           // §IV-F fully blocking reduction
  kIreduce,          // §IV-F plain non-blocking reduction (polled)
  kIbarrierReduce,   // §IV-F Ibarrier (polled) + blocking Reduce
  kIbcast,           // polled Ibcast latency probe (distribution primitive)
  kWindowPreReduce,  // §IV-E RMA-window pre-reduction + leader Ibarrier+Reduce
  kSparseMerge,      // sparse-image merge reduction (SparseFrame delta wire)
  kTreeMerge,        // radix-tree merge reduction over sparse images
  kTwoLevel,         // two-level: window pre-reduce + leader radix tree
  kCount
};

inline constexpr std::size_t kNumPatterns =
    static_cast<std::size_t>(Pattern::kCount);

[[nodiscard]] const char* pattern_name(Pattern pattern);
[[nodiscard]] std::optional<Pattern> pattern_from_name(std::string_view name);

/// One (pattern, message size) measurement on one cluster shape.
struct PatternSample {
  Pattern pattern = Pattern::kReduce;
  std::size_t message_words = 0;  // uint64 words per contribution
  double overhead_s = 0.0;  // per-epoch wall time above the baseline epoch
  double epoch_s = 0.0;     // per-epoch wall time with this pattern
  double modeled_s = 0.0;   // the interconnect model's analytic charge
  /// The tree / leader radix the sample ran at (kTreeMerge and kTwoLevel
  /// arms only; 0 for the flat patterns).
  int radix = 0;
};

struct MicrobenchConfig {
  int num_ranks = 4;
  int ranks_per_node = 1;
  /// Sampling threads the engine would co-schedule per rank. The microbench
  /// does not spawn them; they enter the oversubscription factor, which
  /// scales the per-epoch work quota the same way §IV-D epochs grow with
  /// the machine.
  int threads_per_rank = 1;
  /// Physical cores assumed for the oversubscription factor
  /// (0 = std::thread::hardware_concurrency()).
  int assumed_cores = 0;
  /// Payload sizes to sweep per pattern, in uint64 words. The small end
  /// anchors the alpha-beta line in the sparse-delta-image regime (a short
  /// epoch's image is tens of pairs), the large end in the dense-frame
  /// regime; the fitted per-byte beta then prices both representations.
  /// The sparse-merge arm targets the same sizes with real delta images
  /// (epoch::SparseFrame on the reduce_merge path), so its fitted alpha
  /// separately prices the root-side image merge instead of assuming a
  /// dense elementwise combine.
  std::vector<std::size_t> message_words = {64, 256, 4096, 32768};
  /// Epochs the engine race runs per (pattern, size); the per-epoch cost
  /// is the run's average, so the first-epoch transient is amortized over
  /// this count rather than excluded.
  int measure_rounds = 9;
  /// Cold-start rounds excluded from the directly-timed Ibcast loop (the
  /// engine race above has no separate warmup phase).
  int warmup_rounds = 2;
  /// Independent repetitions of each measurement; the median is kept
  /// (scheduler noise on a timeshared simulation host is substantial).
  int repeats = 3;
  /// CPU time of one work unit, the microbench's stand-in for one sample.
  double work_unit_s = 20e-6;
  /// Per-epoch work quota in units per rank, per unit of oversubscription
  /// (epochs grow as the shape outgrows the substrate, §IV-D).
  int epoch_units = 4;
  /// Rotating straggler: one rank per epoch retires (1 + imbalance) times
  /// the quota, modeling per-epoch sampling imbalance.
  double imbalance = 1.0;
  /// Radixes the kTreeMerge / kTwoLevel arms sweep; the radix with the
  /// lowest total overhead across the message-size sweep is kept (its
  /// samples feed the fitted line) and recorded in the result. Values
  /// below 2 are ignored.
  std::vector<int> tree_radixes = {2, 4};
  /// Base link economics; the network preset layers on top (the same
  /// composition api::Session applies), so the arms race under the
  /// preset's actual latency/bandwidth/launch charges.
  mpisim::NetworkModel network{};
  /// The network preset the arms run on. Pattern rankings shift with the
  /// preset (ncclsim's device-side progress erases the §IV-F Ireduce
  /// penalty; its launch latency taxes chatty patterns), so profiles are
  /// captured per preset.
  mpisim::SubstrateKind substrate = mpisim::SubstrateKind::kMpisim;
};

struct MicrobenchResult {
  MicrobenchConfig config;
  /// ranks * threads / cores, floored at 1: how heavily the shape
  /// timeshares its substrate.
  double oversubscription = 1.0;
  /// Per-epoch wall time of the communication-free baseline epoch.
  double baseline_epoch_s = 0.0;
  /// The winning radix of the kTreeMerge sweep (0 when the arm did not
  /// run: fewer than three ranks leaves a radix tree with no interior).
  int tree_radix = 0;
  /// The winning radix of the kTwoLevel leader-tree sweep (0 when the arm
  /// did not run: single-rank nodes have nothing to pre-reduce).
  int leader_radix = 0;
  std::vector<PatternSample> samples;

  /// Samples of one pattern, ordered by message size.
  [[nodiscard]] std::vector<PatternSample> of(Pattern pattern) const;
};

/// Runs the full pattern x message-size sweep on a fresh simulated cluster
/// of the configured shape.
[[nodiscard]] MicrobenchResult run_microbench(const MicrobenchConfig& config);

/// The oversubscription factor run_microbench would record for `config`.
[[nodiscard]] double oversubscription_factor(const MicrobenchConfig& config);

}  // namespace distbc::tune
