// APGRE — Articulation-Points-Guided Redundancy Elimination for betweenness
// centrality (the paper's contribution, §3-§4).
//
// Pipeline (paper Figure 5):
//   1. decompose the graph along articulation points (bcc/partition.hpp),
//   2. count alpha/beta for every boundary articulation point (bcc/reach.hpp),
//   3. run a per-sub-graph Brandes variant that accumulates the four
//      dependency types (in2in, in2out, out2in, out2out) in one backward
//      sweep and merges them into global BC scores, with parallelism
//      across sub-graphs and, inside costly ones, across root batches, on
//      the work-stealing scheduler (support/sched/scheduler.hpp). The
//      paper's fine-grained level-synchronous kernel is available per
//      sub-graph as apgre_subgraph_bc_scheduled.
//
// Two deliberate corrections to the paper's pseudocode (validated against
// Brandes and the naive oracle; see DESIGN.md §2):
//   * the pendant-derived self term adds alpha(s) when the host is a
//     boundary AP,
//   * for undirected graphs each pendant subtracts 1 from the derived
//     in2in reach (the pendant is itself reachable from its host).
#pragma once

#include <vector>

#include "bcc/partition.hpp"
#include "graph/csr.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// How the scoring phase splits its work is not an option: one cost model
/// decides it (score_scheduled in bc/apgre.cpp; docs/INTERNALS.md §4).
struct ApgreOptions {
  PartitionOptions partition;
};

/// Phase breakdown and decomposition summary (paper Figure 8 / Table 4).
struct ApgreStats {
  double partition_seconds = 0.0;  ///< biconnected decomposition + grouping
  double reach_seconds = 0.0;      ///< alpha/beta counting
  /// 2-core peel preprocessing (PartitionOptions::peel_two_core): time
  /// spent peeling + building the reduction, vertices removed, and the
  /// surviving core fraction (1.0 when peeling was off or removed nothing).
  double peel_seconds = 0.0;
  Vertex peeled_vertices = 0;
  double core_fraction = 1.0;
  /// Wall time of the whole work-stealing run over (sub-graph, root-batch)
  /// tasks: the scoring phase.
  double rest_bc_seconds = 0.0;
  double total_seconds = 0.0;

  std::size_t num_subgraphs = 0;
  Vertex num_articulation_points = 0;
  Vertex num_pendants_removed = 0;
  Vertex top_vertices = 0;
  EdgeId top_arcs = 0;
  /// Redundancy work model (Figure 7).
  double partial_redundancy = 0.0;
  double total_redundancy = 0.0;

  /// Scheduler breakdown of the cost model's choices (see ApgreOptions).
  /// Always 0: the scoring phase no longer runs sub-graphs on the
  /// level-synchronous kernel. Kept because the benchmark's
  /// `sched.fine_subgraphs` column reads it.
  std::size_t num_fine_subgraphs = 0;
  std::size_t num_batch_tasks = 0;     ///< root-batch tasks of split sub-graphs
  std::size_t num_subgraph_tasks = 0;  ///< whole-sub-graph serial tasks
  int sched_workers = 0;               ///< width of the pool the solve ran on
  std::uint64_t sched_tasks = 0;       ///< tasks executed by the scheduler
  std::uint64_t sched_steals = 0;      ///< successful work steals
  double sched_idle_seconds = 0.0;     ///< summed worker idle time
};

/// Full APGRE run: decomposition + reach counting + scoring. `threads` is
/// the solve's width (BcOptions::threads semantics: 0 = the shared pool;
/// see WorkStealingScheduler::pool_for).
std::vector<double> apgre_bc(const CsrGraph& g, const ApgreOptions& opts = {},
                             ApgreStats* stats = nullptr,
                             const SchedulerOptions& sched = {}, int threads = 0);

/// Scoring only, on a caller-supplied decomposition whose alpha/beta reach
/// counts are already filled in (compute_reach_counts), so no ApgreOptions
/// apply. This is the Solver fast path (bc/bc.hpp): decompose once, score
/// many times. `g` is the input graph; `dec` may decompose its peeled core
/// reduction (same vertex ids), and then the scores are reduced-graph
/// scores for expand_peeled_scores while the redundancy is still reported
/// against g's V * A (Decomposition::work_model). When `stats` is non-null
/// its partition_seconds / reach_seconds are kept as-is (the caller reports
/// what *it* spent — zero on a cache hit) and every other field is
/// overwritten; total_seconds covers partition + reach + scoring.
std::vector<double> apgre_bc_with_decomposition(
    const CsrGraph& g, const Decomposition& dec, ApgreStats* stats = nullptr,
    const SchedulerOptions& sched = {}, int threads = 0);

/// BC scores of one sub-graph in local ids (paper Algorithm 2, BCinSG),
/// serial kernel — deterministic, so the Solver's contribution store and
/// the tests use it as the per-block oracle.
std::vector<double> apgre_subgraph_bc(const Subgraph& sg);

/// The same scores from the paper's fine-grained level-synchronous kernel:
/// every BFS level is one WorkStealingScheduler::parallel_for on the pool
/// for `threads`, so concurrent invocations from different threads are
/// safe. `hybrid_inner` enables a direction-optimising (Beamer-style)
/// forward phase — the composition of the decomposition with the `hybrid`
/// baseline's BFS. Exactness is unaffected either way. The scoring phase
/// does not use this kernel (see ApgreOptions); it is exposed for callers
/// scoring one sub-graph and for the differential tests.
std::vector<double> apgre_subgraph_bc_scheduled(const Subgraph& sg,
                                                bool hybrid_inner = false,
                                                int threads = 0);

}  // namespace apgre
