// Fine-grained level-synchronous parallel BC using successor scans instead
// of predecessor lists — Madduri, Ediger, Jiang, Bader, Chavarria-Miranda,
// IPDPS 2009 (the paper's `succs` baseline). The backward phase pulls each
// vertex's dependency from its successors, so each delta cell is written by
// exactly one thread and the phase-2 locks/atomics of `preds` disappear.
// Implemented in bc/level_sync.cpp.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// `threads` is the solve's width (BcOptions::threads semantics; 0 = the
/// shared pool, see WorkStealingScheduler::pool_for).
std::vector<double> parallel_succs_bc(const CsrGraph& g, int threads = 0);

}  // namespace apgre
