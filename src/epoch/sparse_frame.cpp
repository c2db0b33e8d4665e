#include "epoch/sparse_frame.hpp"

// SparseFrame is header-only; this translation unit instantiates its
// EpochManager so template errors surface at library build time.
#include "epoch/epoch_manager.hpp"

namespace distbc::epoch {

template class EpochManager<SparseFrame>;

}  // namespace distbc::epoch
