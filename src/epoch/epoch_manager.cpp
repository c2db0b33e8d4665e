#include "epoch/epoch_manager.hpp"

// EpochManager is a header-only template; the instantiation for the
// betweenness SparseFrame lives in sparse_frame.cpp.
