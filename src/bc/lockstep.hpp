// The "simple" synchronous parallelization of adaptive sampling that the
// paper's §III-B rules out: every thread takes a fixed number of samples,
// then all threads and ranks synchronize with *blocking* collectives to
// check the stopping condition - no overlap of computation and
// communication whatsoever. Kept as an honest ablation baseline
// demonstrating why the epoch-based machinery exists.
#pragma once

#include "bc/kadabra_context.hpp"
#include "bc/result.hpp"
#include "epoch/frame_codec.hpp"
#include "graph/graph.hpp"
#include "mpisim/comm.hpp"

namespace distbc::bc {

struct LockstepOptions {
  KadabraParams params;
  int threads_per_rank = 1;
  /// Samples per round per thread; 0 = the epoch rule divided by P*T.
  std::uint64_t round_share = 0;
  std::uint64_t epoch_base = 1000;
  double epoch_exponent = 1.33;
  /// Frame representation of the per-round reduction (the lockstep
  /// baseline aggregates with blocking collectives either way): dense
  /// elementwise reduce, or sparse/auto delta images via reduce_merge.
  /// Env defaulting (DISTBC_FRAME_REP) is resolved by api::Config.
  epoch::FrameRep frame_rep = epoch::FrameRep::kDense;
};

[[nodiscard]] BcResult lockstep_mpi_rank(const graph::Graph& graph,
                                         const LockstepOptions& options,
                                         mpisim::Comm& world);

[[nodiscard]] BcResult lockstep_mpi(const graph::Graph& graph,
                                    const LockstepOptions& options,
                                    int num_ranks, int ranks_per_node = 1,
                                    mpisim::NetworkModel network = {});

}  // namespace distbc::bc
