// The core correctness suite: APGRE must reproduce Brandes' exact scores on
// every graph, for every option combination — that is the paper's Theorem
// 1-3 claim, and the property these sweeps exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bc/apgre.hpp"
#include "bc/brandes.hpp"
#include "bc/naive.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

void expect_apgre_matches_brandes(const CsrGraph& g, const ApgreOptions& opts = {},
                                  int threads = 0) {
  testing::expect_scores_near(brandes_bc(g),
                              apgre_bc(g, opts, nullptr, {}, threads));
}

TEST(ApgreBc, Shapes) {
  expect_apgre_matches_brandes(path(9));
  expect_apgre_matches_brandes(cycle(11));
  expect_apgre_matches_brandes(star(14));
  expect_apgre_matches_brandes(complete(7));
  expect_apgre_matches_brandes(binary_tree(31));
  expect_apgre_matches_brandes(barbell(6, 3));
}

TEST(ApgreBc, TrivialGraphs) {
  EXPECT_TRUE(apgre_bc(CsrGraph::from_edges(0, {}, false)).empty());
  const auto single = apgre_bc(CsrGraph::from_edges(1, {}, false));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_DOUBLE_EQ(single[0], 0.0);
  expect_apgre_matches_brandes(path(2));  // K2: one pendant, one root
  expect_apgre_matches_brandes(path(3));
}

TEST(ApgreBc, PaperFigure3ExactScores) {
  const CsrGraph g = paper_figure3();
  testing::expect_scores_near(naive_bc(g), apgre_bc(g));
  // Decomposition-sensitive: also check with the three blocks kept apart.
  ApgreOptions opts;
  opts.partition.merge_threshold = 3;
  testing::expect_scores_near(naive_bc(g), apgre_bc(g, opts));
}

TEST(ApgreBc, DisconnectedComponents) {
  const CsrGraph g = CsrGraph::undirected_from_edges(
      12, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 5}, {5, 6}, {8, 9}, {9, 10}, {10, 8}, {10, 11}});
  expect_apgre_matches_brandes(g);
}

TEST(ApgreBc, PendantChains) {
  // Chains force the pendant-of-pendant-host interaction: only the tip of
  // each chain is removable.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {5, 7}});
  expect_apgre_matches_brandes(g);
}

TEST(ApgreBc, PendantOnBoundaryArticulationPoint) {
  // Regression shape for the alpha(s) self-term correction (DESIGN.md §2):
  // two triangles joined at an AP that also hosts a pendant.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {2, 7}});
  ApgreOptions opts;
  opts.partition.merge_threshold = 2;  // keep the triangles in separate sub-graphs
  testing::expect_scores_near(naive_bc(g), apgre_bc(g, opts));
}

TEST(ApgreBc, DirectedPendantsIntoArticulationPoint) {
  // The paper's total-redundancy setup: in-degree-0 pendants feeding an AP.
  EdgeList edges{{0, 2}, {1, 2},                          // pendants
                 {2, 3}, {3, 2}, {3, 4}, {4, 3}, {4, 2}, {2, 4},  // block
                 {4, 5}, {5, 4}, {5, 6}, {6, 5}, {6, 4}, {4, 6}};
  const CsrGraph g = CsrGraph::from_edges(7, edges, true);
  ApgreOptions opts;
  opts.partition.merge_threshold = 2;
  testing::expect_scores_near(naive_bc(g), apgre_bc(g, opts));
}

TEST(ApgreBc, SubgraphKernelMatchesWholeGraphOnBiconnected) {
  // A biconnected graph decomposes into one sub-graph with no boundary APs
  // and no pendants; the kernel must then equal plain Brandes.
  const CsrGraph g = cycle(12);
  const Decomposition dec = decompose(g);
  ASSERT_EQ(dec.subgraphs.size(), 1u);
  const auto serial = apgre_subgraph_bc(dec.subgraphs[0]);
  const auto parallel = apgre_subgraph_bc_scheduled(dec.subgraphs[0]);
  testing::expect_scores_near(brandes_bc(g), serial);
  testing::expect_scores_near(serial, parallel);
}

TEST(ApgreBc, SerialAndParallelKernelsAgree) {
  const CsrGraph g = attach_pendants(barabasi_albert(150, 2, 4), 50, 5);
  const Decomposition dec = decompose(g);
  for (const Subgraph& sg : dec.subgraphs) {
    testing::expect_scores_near(apgre_subgraph_bc(sg),
                                apgre_subgraph_bc_scheduled(sg));
  }
}

// Differential check for the scheduler-native level-synchronous kernel: it
// must match the serial oracle kernel on every sub-graph, with and without
// the direction-optimising forward phase, on a real multi-worker scheduler.
TEST(ApgreBc, ScheduledKernelMatchesSerialOracle) {
  const CsrGraph g = attach_pendants(barabasi_albert(200, 3, 11), 50, 12);
  const Decomposition dec = decompose(g);
  const int threads = 4;  // multi-worker pool even on 1-core machines
  for (const Subgraph& sg : dec.subgraphs) {
    testing::expect_scores_near(
        apgre_subgraph_bc(sg),
        apgre_subgraph_bc_scheduled(sg, /*hybrid_inner=*/false, threads));
    testing::expect_scores_near(
        apgre_subgraph_bc(sg),
        apgre_subgraph_bc_scheduled(sg, /*hybrid_inner=*/true, threads));
  }
}

// A small core carrying a large pendant fringe: one sub-graph with few
// roots and many arcs, which dominates the cost and so has fewer roots than
// the cost model wants batches.
CsrGraph hub_with_fringe(Vertex core, Vertex pendants, std::uint64_t seed) {
  return attach_pendants(complete(core), pendants, seed);
}

// The same shape directed: pendants feed the core through one out-arc each.
CsrGraph directed_hub_with_fringe(Vertex core, Vertex pendants,
                                  std::uint64_t seed) {
  EdgeList arcs;
  for (Vertex u = 0; u < core; ++u) {
    for (Vertex v = 0; v < core; ++v) {
      if (u != v) arcs.push_back({u, v});
    }
  }
  return attach_pendants(CsrGraph::from_edges(core, arcs, true), pendants, seed);
}

// Full APGRE on a few-root input: the dominant sub-graph is split into
// root batches of one root each, and the result stays exact.
void expect_few_root_split_exact(const CsrGraph& g, int threads) {
  ApgreStats stats;
  testing::expect_scores_near(brandes_bc(g),
                              apgre_bc(g, {}, &stats, {}, threads));
  EXPECT_GT(stats.num_batch_tasks, 0u) << "dominant sub-graph not split";
}

// The level-synchronous kernel matches the serial kernel on every
// sub-graph of `g`.
void expect_scheduled_kernel_exact(const CsrGraph& g, bool hybrid_inner,
                                   int threads) {
  for (const Subgraph& sg : decompose(g).subgraphs) {
    testing::expect_scores_near(
        apgre_subgraph_bc(sg),
        apgre_subgraph_bc_scheduled(sg, hybrid_inner, threads));
  }
}

// Four workers on a hub whose satellite communities give it boundary APs:
// full APGRE splits the hub across roots, and the level-synchronous kernel
// scores every sub-graph exactly.
TEST(ApgreBc, ForcedScheduledKernelPathStillExact) {
  const CsrGraph g =
      attach_communities(hub_with_fringe(5, 8200, 1), 2, 4, 2);
  expect_few_root_split_exact(g, /*threads=*/4);
  expect_scheduled_kernel_exact(g, /*hybrid_inner=*/false, /*threads=*/4);
}

TEST(ApgreBc, StatsAreFilled) {
  const CsrGraph g = attach_pendants(caveman(6, 8, 3), 20, 4);
  ApgreStats stats;
  apgre_bc(g, {}, &stats);
  EXPECT_GT(stats.num_subgraphs, 0u);
  EXPECT_GT(stats.num_articulation_points, 0u);
  EXPECT_EQ(stats.num_pendants_removed, 20u);
  EXPECT_GT(stats.top_arcs, 0u);
  EXPECT_GE(stats.total_seconds,
            stats.partition_seconds);  // total includes all phases
  EXPECT_GE(stats.partial_redundancy, 0.0);
  EXPECT_GT(stats.total_redundancy, 0.0);
}

// The peel derives every fringe vertex's DAG from its anchor, so redundancy
// is still measured against the whole input and the derived DAGs count as
// total redundancy, exactly like removed pendants without the peel.
TEST(ApgreBc, RedundancyIsReportedAgainstTheInputUnderBothPeelSettings) {
  const CsrGraph g = attach_pendants(caveman(6, 8, 3), 60, 4);
  for (const bool peel : {false, true}) {
    SCOPED_TRACE(peel ? "peel on" : "peel off");
    ApgreOptions opts;
    opts.partition.peel_two_core = peel;
    ApgreStats stats;
    testing::expect_scores_near(brandes_bc(g), apgre_bc(g, opts, &stats));
    EXPECT_EQ(stats.peeled_vertices > 0, peel);
    EXPECT_GT(stats.total_redundancy, 0.0);
    EXPECT_GE(stats.partial_redundancy, 0.0);
    EXPECT_LE(stats.partial_redundancy + stats.total_redundancy, 1.0);
  }
}

// A forest peels to nothing and never reaches the kernel; the kernel
// counters are still registered, so every APGRE solve reports the same keys.
TEST(ApgreBc, PeeledForestStillRegistersKernelCounters) {
  ApgreOptions opts;
  opts.partition.peel_two_core = true;
  const CsrGraph g = random_tree(40, 5);
  ApgreStats stats;
  testing::expect_scores_near(brandes_bc(g), apgre_bc(g, opts, &stats));
  EXPECT_EQ(stats.peeled_vertices, g.num_vertices());
  std::vector<std::string> names;
  for (const MetricSample& sample : metrics().snapshot()) {
    names.push_back(sample.name);
  }
  for (const char* key : {"bc.apgre.sources", "bc.apgre.traversed_arcs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), key), names.end()) << key;
  }
}

TEST(ApgreBc, ForcedFineGrainedPathStillExact) {
  const CsrGraph g = hub_with_fringe(3, 4100, 2);
  expect_few_root_split_exact(g, /*threads=*/2);
  expect_scheduled_kernel_exact(g, /*hybrid_inner=*/false, /*threads=*/2);
}

// Direction-optimising forward phase inside the level-synchronous kernel,
// across the whole tiny corpus (directed graphs, boundary APs, alpha/beta
// shapes) and the few-root hubs.
TEST(ApgreBc, HybridInnerKernelStillExact) {
  for (const auto& gc : testing::graph_family(63, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    expect_scheduled_kernel_exact(gc.graph, /*hybrid_inner=*/true,
                                  /*threads=*/2);
  }
  expect_scheduled_kernel_exact(hub_with_fringe(3, 4100, 3),
                                /*hybrid_inner=*/true, /*threads=*/2);
  expect_scheduled_kernel_exact(directed_hub_with_fringe(3, 8200, 4),
                                /*hybrid_inner=*/true, /*threads=*/2);
}

// The cost model splits the giant block of a road grid (~600 roots, ~2k
// arcs) into root batches at four workers: judged by size alone, a block
// this small would run as one serial task.
TEST(ApgreBc, CostModelSplitsRoadGridGiantBlock) {
  const CsrGraph g = attach_pendants(
      attach_chains(largest_component(road_grid(22, 22, 0.25, 0.08, 1)).graph,
                    40, 3, 2),
      120, 3);
  ApgreStats stats;
  testing::expect_scores_near(brandes_bc(g), apgre_bc(g, {}, &stats, {}, 4));
  EXPECT_GE(stats.num_batch_tasks, 4u);
  EXPECT_LT(stats.top_arcs, 4096u) << "no longer a small giant block";
}

// With one worker nothing is split: exactly one task per sub-graph.
TEST(ApgreBc, CostModelKeepsOneTaskPerSubgraphInline) {
  const CsrGraph g = attach_pendants(
      attach_chains(largest_component(road_grid(22, 22, 0.25, 0.08, 1)).graph,
                    40, 3, 2),
      120, 3);
  ApgreStats stats;
  testing::expect_scores_near(brandes_bc(g), apgre_bc(g, {}, &stats, {}, 1));
  EXPECT_EQ(stats.num_batch_tasks, 0u);
  EXPECT_EQ(stats.num_subgraph_tasks, stats.num_subgraphs);
  EXPECT_EQ(stats.sched_tasks, stats.num_subgraphs);
}

TEST(ApgreBc, HybridSubgraphKernelMatchesSerial) {
  // Dense sub-graphs trip the bottom-up thresholds; both kernels agree.
  const CsrGraph g = attach_pendants(barabasi_albert(300, 6, 5), 60, 6);
  const Decomposition dec = decompose(g);
  for (const Subgraph& sg : dec.subgraphs) {
    testing::expect_scores_near(
        apgre_subgraph_bc(sg),
        apgre_subgraph_bc_scheduled(sg, /*hybrid_inner=*/true));
  }
}

TEST(ApgreBc, GammaDisabledStillExact) {
  ApgreOptions opts;
  opts.partition.total_redundancy = false;
  const CsrGraph g = attach_pendants(barabasi_albert(120, 2, 6), 60, 7);
  expect_apgre_matches_brandes(g, opts);
}

TEST(ApgreBc, OversubscribedThreadsStillExact) {
  // An odd width of three workers on any host, a single-core one included.
  const CsrGraph g = hub_with_fringe(5, 6200, 6);
  expect_few_root_split_exact(g, /*threads=*/3);
  expect_scheduled_kernel_exact(g, /*hybrid_inner=*/false, /*threads=*/3);
}

// ---- Property sweeps ------------------------------------------------------

class ApgreSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Vertex, bool>> {};

TEST_P(ApgreSweep, MatchesBrandesOnRandomGraphs) {
  const auto [seed, threshold, total_redundancy] = GetParam();
  ApgreOptions opts;
  opts.partition.merge_threshold = threshold;
  opts.partition.total_redundancy = total_redundancy;
  for (const auto& gc : testing::graph_family(seed, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    expect_apgre_matches_brandes(gc.graph, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApgreSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 17, 27, 37),
                       ::testing::Values<Vertex>(2, 8, 64),
                       ::testing::Bool()));

class ApgreReachSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApgreReachSweep, BothReachMethodsExactOnUndirected) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/true)) {
    if (gc.graph.directed()) continue;
    SCOPED_TRACE(gc.name);
    for (ReachMethod method : {ReachMethod::kBfs, ReachMethod::kTreeDp}) {
      ApgreOptions opts;
      opts.partition.reach = method;
      expect_apgre_matches_brandes(gc.graph, opts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApgreReachSweep, ::testing::Values(8, 18, 28));

/// Larger graphs (beyond the naive oracle) against Brandes.
class ApgreLargeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApgreLargeSweep, MatchesBrandesOnMediumGraphs) {
  for (const auto& gc : testing::graph_family(GetParam(), /*tiny=*/false)) {
    SCOPED_TRACE(gc.name);
    expect_apgre_matches_brandes(gc.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApgreLargeSweep, ::testing::Values(9, 19));

}  // namespace
}  // namespace apgre
