// Fine-grained level-synchronous parallel BC with explicit predecessor
// lists — Bader & Madduri, ICPP 2006 (the paper's `preds` baseline, part of
// the SSCA v2.2 benchmark). Vertices of a BFS level are expanded in
// parallel; sigma and the backward dependency accumulation use atomic
// updates (the synchronisation cost the `succs` variant removes).
// Implemented in bc/level_sync.cpp.
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace apgre {

/// `threads` is the solve's width (BcOptions::threads semantics; 0 = the
/// shared pool, see WorkStealingScheduler::pool_for).
std::vector<double> parallel_preds_bc(const CsrGraph& g, int threads = 0);

}  // namespace apgre
