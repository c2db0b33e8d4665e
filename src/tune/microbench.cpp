#include "tune/microbench.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "epoch/sparse_frame.hpp"
#include "mpisim/runtime.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace distbc::tune {

const char* pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::kReduce:
      return "reduce";
    case Pattern::kIreduce:
      return "ireduce";
    case Pattern::kIbarrierReduce:
      return "ibarrier_reduce";
    case Pattern::kIbcast:
      return "ibcast";
    case Pattern::kWindowPreReduce:
      return "window_pre_reduce";
    case Pattern::kSparseMerge:
      return "sparse_merge";
    case Pattern::kTreeMerge:
      return "tree_merge";
    case Pattern::kTwoLevel:
      return "two_level";
    case Pattern::kCount:
      break;
  }
  return "?";
}

std::optional<Pattern> pattern_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumPatterns; ++i) {
    const auto pattern = static_cast<Pattern>(i);
    if (name == pattern_name(pattern)) return pattern;
  }
  return std::nullopt;
}

std::vector<PatternSample> MicrobenchResult::of(Pattern pattern) const {
  std::vector<PatternSample> matching;
  for (const PatternSample& sample : samples)
    if (sample.pattern == pattern) matching.push_back(sample);
  std::sort(matching.begin(), matching.end(),
            [](const PatternSample& a, const PatternSample& b) {
              return a.message_words < b.message_words;
            });
  return matching;
}

double oversubscription_factor(const MicrobenchConfig& config) {
  int cores = config.assumed_cores;
  if (cores <= 0)
    cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const double demand =
      static_cast<double>(config.num_ranks) *
      static_cast<double>(std::max(1, config.threads_per_rank));
  return std::max(1.0, demand / static_cast<double>(cores));
}

namespace {

/// CPU time of the calling thread. Work units are defined in CPU time, not
/// wall time: on a timeshared substrate a wall-clock spin would count
/// descheduled time as work and hide exactly the §IV-F effects the
/// microbench exists to measure.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Burns `seconds` of CPU, then yields so timeshared peers progress.
void spin_for(double seconds) {
  const double until = thread_cpu_s() + seconds;
  while (thread_cpu_s() < until) {
  }
  std::this_thread::yield();
}

/// The synthetic epoch frame: `words` uint64 slots so the aggregation
/// payload has exactly the size under test; slot 0 carries the number of
/// samples taken. Merging is a full elementwise sum, like real frames.
class UnitFrame {
 public:
  explicit UnitFrame(std::size_t words) : data_(std::max<std::size_t>(1, words), 0) {}

  void clear() { std::fill(data_.begin(), data_.end(), 0); }
  void merge(const UnitFrame& other) {
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }
  [[nodiscard]] std::span<const std::uint64_t> raw() const { return data_; }
  void add_dense(std::span<const std::uint64_t> dense) {
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += dense[i];
  }
  [[nodiscard]] std::uint64_t units() const { return data_[0]; }
  void add_unit() { ++data_[0]; }

 private:
  std::vector<std::uint64_t> data_;
};

/// Deterministic per-sample CPU cost with the imbalance spread - shared by
/// both samplers so epochs end with the straggler skew that real
/// variable-cost samplers (BFS on a power-law graph) produce - the skew
/// §IV-F overlap exists to hide.
class SpinCost {
 public:
  SpinCost(std::uint64_t stream, double unit_s, double imbalance)
      : state_(static_cast<std::uint32_t>(stream * 2654435761u + 1u)),
        unit_s_(unit_s),
        spread_(std::clamp(imbalance, 0.0, 1.0)) {}

  /// Burns around unit_s of CPU (deterministic per-call factor).
  void burn() {
    state_ = state_ * 1664525u + 1013904223u;
    const double uniform =
        static_cast<double>(state_ >> 8) / static_cast<double>(1u << 24);
    const double factor = 1.0 - spread_ + 2.0 * spread_ * uniform;
    spin_for(unit_s_ * std::max(0.05, factor));
  }

 private:
  std::uint32_t state_;
  double unit_s_;
  double spread_;
};

/// The synthetic sampler of the dense arms: one work unit per sample.
class UnitSampler {
 public:
  UnitSampler(std::uint64_t stream, double unit_s, double imbalance)
      : cost_(stream, unit_s, imbalance) {}

  void sample(UnitFrame& frame) {
    cost_.burn();
    frame.add_unit();
  }

 private:
  SpinCost cost_;
};

/// The sparse-arm sampler: one work unit, then a record touching `spread`
/// rotating vertices, so one epoch's per-rank delta image grows to roughly
/// the message size under test - the merge-reduction analogue of
/// UnitFrame's dense payload, with the root paying a real image merge.
class SparseUnitSampler {
 public:
  SparseUnitSampler(std::uint64_t stream, double unit_s, double imbalance,
                    std::uint64_t spread, std::uint64_t vertices)
      : cost_(stream, unit_s, imbalance),
        cursor_(stream * 2654435761u),
        spread_(spread),
        vertices_(vertices) {}

  void sample(epoch::SparseFrame& frame) {
    cost_.burn();
    touched_.clear();
    for (std::uint64_t i = 0; i < spread_; ++i)
      touched_.push_back(static_cast<std::uint32_t>(cursor_++ % vertices_));
    frame.record(touched_);
  }

 private:
  SpinCost cost_;
  std::uint64_t cursor_;
  std::uint64_t spread_;
  std::uint64_t vertices_;
  std::vector<std::uint32_t> touched_;
};

engine::Aggregation pattern_strategy(Pattern pattern) {
  switch (pattern) {
    case Pattern::kReduce:
      return engine::Aggregation::kBlocking;
    case Pattern::kIreduce:
      return engine::Aggregation::kIreduce;
    default:
      return engine::Aggregation::kIbarrierReduce;
  }
}

}  // namespace

MicrobenchResult run_microbench(const MicrobenchConfig& config) {
  DISTBC_ASSERT(config.num_ranks >= 1);
  DISTBC_ASSERT(config.measure_rounds >= 1);
  DISTBC_ASSERT(config.epoch_units >= 1);
  DISTBC_ASSERT(!config.message_words.empty());
  MicrobenchResult result;
  result.config = config;
  result.oversubscription = oversubscription_factor(config);
  // The arms race under the preset's effective link economics (identity
  // for mpisim); the baseline control stays on the disabled model.
  const mpisim::NetworkModel arm_network =
      mpisim::network_model_for(config.substrate, config.network);

  const int threads = std::max(1, config.threads_per_rank);
  const auto total_threads =
      static_cast<std::uint64_t>(config.num_ranks) * threads;
  // Per-epoch sample count, grown with oversubscription the way §IV-D
  // epochs grow with the machine.
  const auto n0_total = static_cast<std::uint64_t>(
      std::max(1.0, static_cast<double>(config.epoch_units) *
                        result.oversubscription) *
      static_cast<double>(total_threads));
  const std::uint64_t target_units =
      n0_total * static_cast<std::uint64_t>(config.measure_rounds);

  // One measurement = the real engine loop (engine::run_epochs) racing the
  // synthetic workload to `target_units` useful samples under the given
  // aggregation path. Everything the strategies trade on is in play:
  // overlap samples advance the target, non-blocking polls pay the
  // progression tax, blocking waits produce nothing.
  struct Measurement {
    double wall_s = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t attempted = 0;
    double modeled_s = 0.0;  // the interconnect model's analytic charge
  };
  const auto measure = [&](std::optional<Pattern> pattern, std::size_t words,
                           const mpisim::NetworkModel& network, int radix = 0) {
    engine::EngineOptions engine_options;
    engine_options.threads_per_rank = threads;
    engine_options.epoch_base = n0_total;
    engine_options.epoch_exponent = 0.0;  // n0 fixed at epoch_base
    const bool sparse =
        pattern && (*pattern == Pattern::kSparseMerge ||
                    *pattern == Pattern::kTreeMerge ||
                    *pattern == Pattern::kTwoLevel);
    if (pattern) {
      engine_options.aggregation = pattern_strategy(*pattern);
      engine_options.hierarchical = *pattern == Pattern::kWindowPreReduce ||
                                    *pattern == Pattern::kTwoLevel;
      if (*pattern == Pattern::kTreeMerge) engine_options.tree_radix = radix;
      if (*pattern == Pattern::kTwoLevel) engine_options.leader_radix = radix;
    }
    if (sparse) engine_options.frame_rep = engine::FrameRep::kSparse;

    mpisim::RuntimeConfig runtime_config;
    runtime_config.num_ranks = config.num_ranks;
    runtime_config.ranks_per_node = config.ranks_per_node;
    runtime_config.network = network;
    mpisim::Runtime runtime(runtime_config);

    Measurement measurement;
    runtime.run([&](mpisim::Comm& world) {
      const auto record = [&](const auto& engine_result) {
        if (world.rank() != 0) return;
        measurement.wall_s = engine_result.total_seconds;
        measurement.epochs = engine_result.epochs;
        measurement.attempted = engine_result.samples_attempted;
        measurement.modeled_s = world.modeled_collective_seconds(
            words * sizeof(std::uint64_t));
      };
      if (sparse) {
        // One epoch's per-rank delta image should fill roughly the
        // message size under test (2 words per touched vertex).
        const auto per_rank = std::max<std::uint64_t>(
            1, n0_total / static_cast<std::uint64_t>(config.num_ranks));
        const auto spread = std::max<std::uint64_t>(1, words / (2 * per_rank));
        record(engine::run_epochs(
            &world, epoch::SparseFrame(static_cast<std::uint32_t>(words)),
            [&](std::uint64_t stream) {
              return SparseUnitSampler(stream, config.work_unit_s,
                                       config.imbalance, spread, words);
            },
            [&](const epoch::SparseFrame& aggregate) {
              return aggregate.tau() >= target_units;
            },
            engine_options));
      } else {
        record(engine::run_epochs(
            &world, UnitFrame(words),
            [&](std::uint64_t stream) {
              return UnitSampler(stream, config.work_unit_s,
                                 config.imbalance);
            },
            [&](const UnitFrame& aggregate) {
              return aggregate.units() >= target_units;
            },
            engine_options));
      }
    });
    return measurement;
  };

  const int repeats = std::max(1, config.repeats);
  const auto median = [](std::vector<double> values) {
    DISTBC_ASSERT(!values.empty());
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };

  // Baseline control: the same engine run over a zero-cost interconnect.
  // Its useful-sample throughput prices the substrate (scheduler, epoch
  // manager, frame merges included); a pattern's overhead is then the wall
  // time its run cost beyond what the substrate needs for the same number
  // of samples, normalized per epoch.
  std::vector<double> baseline_epoch;
  std::vector<double> baseline_rate;
  for (int r = 0; r < repeats; ++r) {
    const Measurement baseline =
        measure(std::nullopt, config.message_words[0],
                mpisim::NetworkModel::disabled());
    if (baseline.epochs == 0 || baseline.wall_s <= 0.0) continue;
    baseline_epoch.push_back(baseline.wall_s /
                             static_cast<double>(baseline.epochs));
    baseline_rate.push_back(static_cast<double>(baseline.attempted) /
                            baseline.wall_s);
  }
  DISTBC_ASSERT_MSG(!baseline_rate.empty(), "baseline measurement failed");
  result.baseline_epoch_s = median(baseline_epoch);
  const double unit_throughput = median(baseline_rate);

  // One (pattern, radix) arm across the message-size sweep; returns the
  // per-size median samples (empty when every repeat failed to measure).
  const auto sweep_arm = [&](Pattern pattern, int radix) {
    std::vector<PatternSample> arm;
    for (const std::size_t words : config.message_words) {
      PatternSample sample;
      sample.pattern = pattern;
      sample.message_words = words;
      sample.radix = radix;
      std::vector<double> epoch_estimates;
      std::vector<double> overhead_estimates;
      for (int r = 0; r < repeats; ++r) {
        const Measurement measured =
            measure(pattern, words, arm_network, radix);
        if (measured.epochs == 0 || unit_throughput <= 0.0) continue;
        epoch_estimates.push_back(measured.wall_s /
                                  static_cast<double>(measured.epochs));
        const double paid_s =
            static_cast<double>(measured.attempted) / unit_throughput;
        overhead_estimates.push_back(
            std::max(0.0, (measured.wall_s - paid_s) /
                              static_cast<double>(measured.epochs)));
        sample.modeled_s = measured.modeled_s;
      }
      if (overhead_estimates.empty()) continue;
      sample.epoch_s = median(epoch_estimates);
      sample.overhead_s = median(overhead_estimates);
      arm.push_back(sample);
    }
    return arm;
  };

  for (std::size_t p = 0; p < kNumPatterns; ++p) {
    const auto pattern = static_cast<Pattern>(p);
    if (pattern == Pattern::kIbcast)
      continue;  // measured separately below: it is not an aggregation path
    // A radix tree over two ranks has no interior to overlap; single-rank
    // nodes have nothing to pre-reduce. Skip the arms a shape cannot use.
    if (pattern == Pattern::kTreeMerge && config.num_ranks < 3) continue;
    if (pattern == Pattern::kTwoLevel && config.ranks_per_node < 2) continue;

    if (pattern == Pattern::kTreeMerge || pattern == Pattern::kTwoLevel) {
      // Radix sweep: the radix with the lowest total overhead over the
      // size sweep wins; only its samples feed the fitted line, so the
      // profile's alpha-beta prices the tree shape it also records.
      std::vector<PatternSample> best;
      double best_total = 0.0;
      for (const int radix : config.tree_radixes) {
        if (radix < 2) continue;
        std::vector<PatternSample> arm = sweep_arm(pattern, radix);
        if (arm.empty()) continue;
        double total = 0.0;
        for (const PatternSample& sample : arm) total += sample.overhead_s;
        if (best.empty() || total < best_total) {
          best = std::move(arm);
          best_total = total;
        }
      }
      if (best.empty()) continue;
      (pattern == Pattern::kTreeMerge ? result.tree_radix
                                      : result.leader_radix) =
          best.front().radix;
      result.samples.insert(result.samples.end(), best.begin(), best.end());
    } else {
      const std::vector<PatternSample> arm = sweep_arm(pattern, 0);
      result.samples.insert(result.samples.end(), arm.begin(), arm.end());
    }
  }

  // The termination Ibcast: a plain polled-collective loop (one byte; the
  // cost is all latency and identical under every aggregation strategy).
  {
    mpisim::RuntimeConfig runtime_config;
    runtime_config.num_ranks = config.num_ranks;
    runtime_config.ranks_per_node = config.ranks_per_node;
    runtime_config.network = arm_network;
    mpisim::Runtime runtime(runtime_config);
    PatternSample sample;
    sample.pattern = Pattern::kIbcast;
    sample.message_words = 1;
    const int rounds = config.warmup_rounds + config.measure_rounds;
    double overhead = 0.0;
    runtime.run([&](mpisim::Comm& world) {
      std::uint64_t units = 0;
      world.barrier();
      WallTimer timer;
      for (int round = 0; round < rounds; ++round) {
        if (round == config.warmup_rounds) {
          world.barrier();  // cold-start rounds are excluded from the timing
          timer.restart();
          units = 0;
        }
        std::uint8_t flag = 0;
        mpisim::Request bcast = world.ibcast(std::span{&flag, 1}, 0);
        while (!bcast.test()) {
          spin_for(config.work_unit_s);
          ++units;
        }
      }
      world.barrier();
      const double wall = timer.elapsed_s();
      std::uint64_t total_units = 0;
      world.reduce(std::span<const std::uint64_t>(&units, 1),
                    std::span{&total_units, 1}, 0);
      if (world.rank() == 0 && unit_throughput > 0.0) {
        const double paid_s =
            static_cast<double>(total_units) / unit_throughput;
        overhead = std::max(0.0, (wall - paid_s) / config.measure_rounds);
        sample.modeled_s = world.modeled_collective_seconds(1);
      }
    });
    sample.overhead_s = overhead;
    sample.epoch_s = overhead;
    result.samples.push_back(sample);
  }
  return result;
}

}  // namespace distbc::tune
