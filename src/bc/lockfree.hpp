// Level-synchronous parallel BC without locks or atomic read-modify-writes
// — the pull-based approach of Tan, Tu & Sun, ICPP 2009 (the paper's
// `lockSyncFree` baseline). The forward phase discovers level d+1 by having
// every still-unvisited vertex scan its in-neighbours for level-d vertices,
// so each dist/sigma cell has exactly one writer; the backward phase is the
// successor pull of `succs`. Trades synchronisation for extra edge scans.
// Implemented in bc/level_sync.cpp.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// `threads` is the solve's width (BcOptions::threads semantics; 0 = the
/// shared pool, see WorkStealingScheduler::pool_for).
std::vector<double> lockfree_bc(const CsrGraph& g, int threads = 0);

}  // namespace apgre
