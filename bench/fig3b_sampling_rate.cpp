// Reproduces Figure 3b: sampling throughput normalized by machine size -
// samples / (ADS time * P) - across the node sweep. A flat curve means the
// adaptive sampling phase scales linearly: almost all communication is
// hidden behind sampling.
//
// Second section: the sampling kernel. One thread samples a
// Barabasi-Albert proxy (default |V| = 200k, degree 8) through
// bc::PathSampler: one stream alone, then four interleaved streams with a
// private traversal kernel each and with one kernel shared by all four
// (the engine's layout for a thread's virtual streams). The shared-kernel
// frame is checked bitwise against the private-kernel one - the
// deterministic counter the CI regression gate keys on.
//
// --json / out= emit a machine-readable snapshot: wall-clock rates (named
// *_rate / *speedup*, skipped by ci/compare_bench.py) plus deterministic
// counters (recorded-count sums, tau accounting, the bitwise check) that
// are machine independent and gated against bench/baselines/.
#include "bench_common.hpp"

#include "bc/sampler.hpp"
#include "epoch/state_frame.hpp"
#include "gen/barabasi_albert.hpp"
#include "support/timer.hpp"

#include <algorithm>

namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  const std::uint64_t batch_vertices = config.options.get_u64(
      "batch_n", 200000, "BA vertices of the sampling-kernel section");
  const std::uint64_t batch_samples = config.options.get_u64(
      "batch_samples", 4000, "samples per layout in the kernel section");
  const std::uint64_t batch_reps = config.options.get_u64(
      "batch_reps", 5, "interleaved repetitions per layout (median taken)");
  config.finish("Figure 3b: sampling rate.");
  bench::print_preamble(
      "Figure 3b - samples/(time * P) during adaptive sampling",
      "paper Fig. 3b (flat curve = linear sampling scalability)", config);
  bench::JsonReport json("fig3b_sampling_rate", config);

  const auto ranks = bench::rank_sweep(config);
  std::vector<std::vector<double>> rates(ranks.size());

  TablePrinter table({"instance", "P=1", "P=2", "P=4", "P=8", "P=16"});
  for (const auto& spec : config.suite()) {
    const auto graph = spec.build(config.scale, config.seed);
    std::vector<std::string> row{spec.name};
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const bc::KadabraOptions options =
          bench::bench_mpi_options(spec, config);
      const bc::BcResult result = bc::kadabra_mpi(
          graph, options, ranks[i], /*ranks_per_node=*/1,
          bench::bench_network(config));
      const double rate =
          result.adaptive_seconds > 0
              ? static_cast<double>(result.samples_attempted) /
                    (result.adaptive_seconds * ranks[i])
              : 0.0;
      rates[i].push_back(rate);
      row.push_back(TablePrinter::fmt(rate, 0));
      json.begin_row();
      json.field("section", "rank_sweep");
      json.field("instance", spec.name);
      json.field("ranks", static_cast<double>(ranks[i]));
      json.field("samples_per_sec_per_rank_rate", rate);
    }
    while (row.size() < 6) row.push_back("-");
    table.add_row(row);
  }
  table.print();

  std::printf("\nGeometric-mean samples/(s * P):\n");
  TablePrinter summary({"# compute nodes", "samples/(s*P)"});
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const double geomean = bench::geometric_mean(rates[i]);
    summary.add_row({std::to_string(ranks[i]), TablePrinter::fmt(geomean, 0)});
    json.summary("p" + std::to_string(ranks[i]) + "_geomean_rate", geomean);
  }
  summary.print();
  std::printf("\nPaper shape: the normalized rate stays flat across P "
              "(600-1000 samples/(s*node)\non their hardware; absolute "
              "values differ on this substrate).\n");

  // --- Sampling kernel (graph::BidirectionalBfs) ----------------------------
  constexpr std::uint64_t kStreams = 4;
  const std::uint64_t per_stream =
      std::max<std::uint64_t>(1, batch_samples / kStreams);
  std::printf("\n=== Sampling kernel - single-thread sampling rate ===\n"
              "BA graph: %llu vertices, degree 8, seed %llu; %llu samples "
              "per layout,\nmedian of %llu interleaved reps.\n\n",
              static_cast<unsigned long long>(batch_vertices),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(batch_samples),
              static_cast<unsigned long long>(batch_reps));
  const graph::Graph ba = gen::barabasi_albert(
      static_cast<graph::Vertex>(batch_vertices), 8, config.seed);
  const graph::Vertex n = ba.num_vertices();

  // Round-robin over the streams, one sample each per round - the order
  // in which a thread's streams would contend for a kernel's cache lines.
  auto sample_streams = [&](std::vector<bc::PathSampler>& samplers,
                            epoch::StateFrame& frame) {
    for (std::uint64_t i = 0; i < per_stream; ++i)
      for (bc::PathSampler& sampler : samplers) sampler.sample(frame);
  };
  auto make_samplers = [&](bool shared) {
    const auto kernel =
        shared ? std::make_shared<graph::BidirectionalBfs>(n) : nullptr;
    std::vector<bc::PathSampler> samplers;
    for (std::uint64_t v = 0; v < kStreams; ++v) {
      const Rng rng = Rng(config.seed).split(v);
      if (shared)
        samplers.emplace_back(ba, rng, kernel);
      else
        samplers.emplace_back(ba, rng);
    }
    return samplers;
  };

  // Interleaved timing: every layout is measured once per rep, so machine
  // noise hits all of them alike; per layout the median rep counts. Every
  // rep re-creates the samplers with the same streams, so the sample set
  // per layout is fixed.
  std::vector<double> single_times;
  std::vector<double> private_times;
  std::vector<double> shared_times;
  epoch::StateFrame single_frame(n);
  epoch::StateFrame private_frame(n);
  epoch::StateFrame shared_frame(n);
  for (std::uint64_t rep = 0; rep < batch_reps; ++rep) {
    {
      single_frame.clear();
      bc::PathSampler sampler(ba, Rng(config.seed).split(0));
      WallTimer timer;
      for (std::uint64_t i = 0; i < batch_samples; ++i)
        sampler.sample(single_frame);
      single_times.push_back(timer.elapsed_s());
    }
    for (const bool shared : {false, true}) {
      epoch::StateFrame& frame = shared ? shared_frame : private_frame;
      frame.clear();
      auto samplers = make_samplers(shared);
      WallTimer timer;
      sample_streams(samplers, frame);
      (shared ? shared_times : private_times).push_back(timer.elapsed_s());
    }
  }

  // Deterministic counters: sharing one kernel across interleaved streams
  // must not change a single draw, so the two frames are bitwise
  // identical; every layout must account every sample in tau.
  const bool identical_shared =
      std::equal(private_frame.raw().begin(), private_frame.raw().end(),
                 shared_frame.raw().begin(), shared_frame.raw().end());
  const bool tau_ok = single_frame.tau() == batch_samples &&
                      private_frame.tau() == kStreams * per_stream &&
                      shared_frame.tau() == kStreams * per_stream;

  const double single_rate =
      static_cast<double>(batch_samples) / median(single_times);
  const double private_rate = static_cast<double>(kStreams * per_stream) /
                              median(private_times);
  const double shared_rate = static_cast<double>(kStreams * per_stream) /
                             median(shared_times);
  TablePrinter kernel_table({"layout", "samples/s", "count_sum"});
  kernel_table.add_row({"1 stream", TablePrinter::fmt(single_rate, 0),
                        std::to_string(single_frame.count_sum())});
  kernel_table.add_row({"4 streams, private kernels",
                        TablePrinter::fmt(private_rate, 0),
                        std::to_string(private_frame.count_sum())});
  kernel_table.add_row({"4 streams, one shared kernel",
                        TablePrinter::fmt(shared_rate, 0),
                        std::to_string(shared_frame.count_sum())});
  kernel_table.print();
  std::printf("\nshared kernel bitwise identical to private kernels: %s; "
              "tau accounting: %s\n(fused two-side visit records + folded "
              "intersection + cached frontier volumes;\nsee "
              "graph/bidirectional_bfs.hpp)\n",
              identical_shared ? "YES" : "NO", tau_ok ? "exact" : "BROKEN");

  json.summary("single_stream_rate", single_rate);
  json.summary("private_kernels_rate", private_rate);
  json.summary("shared_kernel_rate", shared_rate);
  json.summary("batch_samples", static_cast<double>(batch_samples));
  json.summary("batch_count_sum",
               static_cast<double>(single_frame.count_sum()));
  json.summary("batch1_bitwise_identical", identical_shared ? 1.0 : 0.0);
  json.summary("batch_tau_ok", tau_ok ? 1.0 : 0.0);
  json.write();
  return 0;
}
