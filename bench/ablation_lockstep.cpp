// Ablation for paper §III-B: "simple parallelization techniques - such as
// taking a fixed number of samples before each check of the stopping
// condition - fail to overlap computation and aggregation and are known to
// not scale well". Compares that lockstep scheme against the epoch-based
// driver on the same instance and cluster shapes.
//
// Lockstep is a configuration of the same engine: deterministic mode (every
// stream takes its exact per-epoch share, no overlap samples, threads wait
// at every transition) with kBlocking aggregation (blocking collectives on
// every leg). Each epoch is then a fixed number of samples followed by a
// full synchronization and a blocking reduction before the stop check.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace distbc;
  bench::BenchConfig config(argc, argv);
  config.options.describe("instance", "proxy instance to run");
  config.finish("SIII-B ablation: lockstep vs epoch-based.");
  bench::print_preamble("Ablation - lockstep vs epoch-based parallelization",
                        "paper §III-B", config);

  const auto& spec = gen::instance_by_name(
      config.options.get_string("instance", "wikipedia-proxy"));
  const auto graph = spec.build(config.scale, config.seed);
  std::printf("instance=%s |V|=%u\n\n", spec.name.c_str(),
              graph.num_vertices());

  TablePrinter table({"P", "epoch ADS (s)", "lockstep ADS (s)",
                      "epoch adv.", "epoch rate", "lockstep rate",
                      "lockstep samples", "lockstep epochs"});
  for (const int p : {1, 4, 16}) {
    // Synchronization cost is the object of study: finer rounds and a
    // slower fabric keep it visible above the sampling work.
    bc::KadabraOptions epoch_options = bench::bench_mpi_options(spec, config);
    epoch_options.engine.epoch_base = config.options.get_u64("n0base", 20);
    const bc::BcResult epoch_result = bc::kadabra_mpi(
        graph, epoch_options, p, 1, bench::bench_network(config, 2000.0));

    bc::KadabraOptions lockstep_options = epoch_options;
    lockstep_options.engine.deterministic = true;
    lockstep_options.engine.aggregation = bc::Aggregation::kBlocking;
    const bc::BcResult lockstep_result = bc::kadabra_mpi(
        graph, lockstep_options, p, 1, bench::bench_network(config, 2000.0));

    auto rate = [p](const bc::BcResult& result) {
      return result.adaptive_seconds > 0
                 ? static_cast<double>(result.samples_attempted) /
                       (result.adaptive_seconds * p)
                 : 0.0;
    };
    table.add_row(
        {std::to_string(p),
         TablePrinter::fmt(epoch_result.adaptive_seconds, 3),
         TablePrinter::fmt(lockstep_result.adaptive_seconds, 3),
         TablePrinter::fmt_ratio(lockstep_result.adaptive_seconds /
                                 epoch_result.adaptive_seconds),
         TablePrinter::fmt(rate(epoch_result), 0),
         TablePrinter::fmt(rate(lockstep_result), 0),
         std::to_string(lockstep_result.samples),
         std::to_string(lockstep_result.epochs)});
  }
  table.print();
  std::printf("\nThe lockstep variant pays a full synchronization + "
              "blocking aggregation\nper round; its normalized sampling "
              "rate degrades with P while the\nepoch-based algorithm stays "
              "flat.\n");
  return 0;
}
