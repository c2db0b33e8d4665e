// The benchmark's four workloads. Each one builds its inputs from the run
// seed, times its set-up and its operations, and checks every operation
// against an exact reference outside the timed windows. README.md in the
// benchmark directory says why each workload exists.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Which of a run's worker processes this is; with the seed it picks the
  /// sampler and client streams, so every part draws its own.
  std::uint64_t part = 0;
  double seconds = 10.0;
  /// Traced run: every other timed operation, all set-ups and the direct
  /// graph:: probes record spans; the rest run untraced so the run itself
  /// measures the tracing overhead.
  bool trace = false;
  /// Directory of the on-disk reference cache; empty = memory only.
  std::string ref_cache;
};

struct Outcome {
  /// Every operation returned an ok Status and well-formed output.
  bool well_formed = true;
  std::uint64_t attempted = 0;
  /// Operations with a non-ok Status or an error above epsilon against the
  /// exact reference.
  std::uint64_t failed = 0;
  /// Largest error / epsilon over every checked operation.
  double worst_err_over_eps = 0.0;

  struct Op {
    double seconds = 0.0;
    bool traced = false;
    std::size_t kind = 0;  // pool-mixed: index of the (graph, query type)
  };
  std::vector<double> setup_s;        // one per set-up
  std::vector<double> first_query_s;  // first answers on fresh state
  std::vector<Op> ops;                // timed operations
  /// Denominator of qps: summed operation time for one client, loop wall
  /// time for the closed-loop clients of pool-mixed.
  double busy_s = 0.0;

  /// Input identity and work counts, printed before the metrics.
  std::vector<std::string> lines;

  /// Counts one operation and its error against the reference.
  void check(bool status_ok, double error, double epsilon);
  /// Adds the identity line of one input graph.
  void describe(const std::string& label, const distbc::graph::Graph& graph,
                std::uint64_t seed);
};

using WorkloadFn = std::function<Outcome(const RunOptions&, Tracer&)>;

/// The registered workloads by name; empty function for unknown names.
[[nodiscard]] WorkloadFn find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

}  // namespace perfbench
