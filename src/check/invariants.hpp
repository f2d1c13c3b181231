// Internal-consistency invariants for the APGRE decomposition and the
// ApgreStats a betweenness() run reports.
//
// Unlike bcc/validate.hpp (which checks a Decomposition against the paper's
// structural properties using the library's own reach code), this layer
// re-derives every quantity independently — naive restricted BFS for
// alpha/beta, a degree census for pendants, the standalone articulation
// finder for AP counts — so a bookkeeping bug in partition.cpp or reach.cpp
// cannot hide behind itself.
//
// All checkers return a human-readable list of violations; empty means
// every invariant holds.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bc/bc.hpp"
#include "bcc/parallel_bicomp.hpp"
#include "bcc/partition.hpp"
#include "graph/csr.hpp"

namespace apgre {

/// Decomposition invariants:
///  1. sub-graph vertex multiset covers exactly the non-isolated vertices,
///     with Sum_i |V_i| == #non-isolated + Sum_v (copies(v) - 1) and every
///     multi-sub-graph vertex flagged as a boundary AP everywhere,
///  2. every boundary AP is an articulation point of the undirected
///     projection (standalone finder ground truth), and the decomposition's
///     AP counter matches that finder,
///  3. alpha/beta match an independent restricted BFS for up to
///     `max_reach_checks` boundary APs (alpha == beta on undirected inputs),
///  4. roots/removed partition each sub-graph with gamma accounting:
///     Sum gamma == #removed per sub-graph, the global pendant counter adds
///     up, and every removed vertex passes the pendant degree census.
std::vector<std::string> check_decomposition_invariants(
    const CsrGraph& g, const Decomposition& dec,
    std::size_t max_reach_checks = static_cast<std::size_t>(-1));

/// ApgreStats invariants against a fresh decompose(g, opts.partition) — of
/// the peeled core reduction, with the peel's anchor weights injected, when
/// opts.partition.peel_two_core is set or the stats report peeled vertices
/// (undirected inputs): peeled-vertex count, sub-graph / AP / pendant
/// counters, top sub-graph size, the Figure-7 redundancy fractions against
/// g's V * A, and phase-timing sanity (non-negative phases that sum to at
/// most the total).
std::vector<std::string> check_stats_invariants(const CsrGraph& g,
                                                const ApgreStats& stats,
                                                const ApgreOptions& opts = {});

/// Biconnectivity-pass agreement: build the block decomposition with the
/// pass `mode` selects (kOn = the parallel pass regardless of size, kOff =
/// the serial DFS, kAuto = the production gate) and check it against
/// ground truths none of the passes share code with:
///  1. every edge of the undirected projection lies in exactly one block,
///     and each block's vertex set is exactly its edges' endpoints,
///  2. the articulation flags match the standalone finder
///     (articulation.cpp), and every flagged vertex is in >= 2 blocks,
///  3. the block-cut tree is a forest (acyclic; bipartite by
///     construction), and any_component names a real containing block,
///  4. when `mode` selected the parallel pass, its canonicalized output is
///     structure-identical to the canonicalized serial DFS output.
std::vector<std::string> check_decomposition_agreement(
    const CsrGraph& g,
    ParallelDecomposition mode = ParallelDecomposition::kAuto);

/// Independent pendant census replicating the partition's classification
/// from degrees alone: directed pendants have no in-arcs and one out-arc;
/// undirected pendants have degree one (K2 keeps the lower id as root).
Vertex pendant_census(const CsrGraph& g);

}  // namespace apgre
