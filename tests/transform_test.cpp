#include <gtest/gtest.h>

#include <numeric>

#include "bc/apgre.hpp"
#include "bc/brandes.hpp"
#include "bcc/partition.hpp"
#include "bcc/reach.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

// Solve the peeled reduction with plain Brandes and re-expand — the flat
// reduction is exact under any exact algorithm, so this must equal
// brandes_bc on the original graph.
std::vector<double> peel_then_brandes(const CsrGraph& g) {
  const PeelResult peel = two_core_peel(g);
  const CsrGraph reduced = peeled_reduction(g, peel);
  std::vector<double> scores = brandes_bc(reduced);
  expand_peeled_scores(peel, scores);
  return scores;
}

TEST(UndirectedProjection, SymmetrisesDirectedArcs) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}}, true);
  const CsrGraph u = undirected_projection(g);
  EXPECT_FALSE(u.directed());
  EXPECT_TRUE(u.is_symmetric());
  EXPECT_EQ(u.num_arcs(), 4u);
}

TEST(UndirectedProjection, IdentityOnUndirected) {
  const CsrGraph g = cycle(5);
  EXPECT_EQ(undirected_projection(g), g);
}

TEST(Relabel, PermutesAdjacency) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}}, true);
  const CsrGraph r = relabel(g, {2, 0, 1});  // 0->2, 1->0, 2->1
  EXPECT_EQ(r.out_degree(2), 1u);
  EXPECT_EQ(r.out_neighbors(2)[0], 0u);
  EXPECT_EQ(r.out_neighbors(0)[0], 1u);
}

TEST(Relabel, RejectsNonPermutation) {
  const CsrGraph g = path(3);
  EXPECT_THROW(relabel(g, {0, 0, 1}), std::logic_error);
  EXPECT_THROW(relabel(g, {0, 1}), std::logic_error);
}

TEST(Relabel, IdentityIsNoop) {
  const CsrGraph g = erdos_renyi(40, 100, true, 3);
  std::vector<Vertex> id(40);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_EQ(relabel(g, id), g);
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  //  0-1-2-3 path; induce {1, 2, 3}.
  const CsrGraph g = path(4);
  const InducedSubgraph sub = induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 1-2 and 2-3
  EXPECT_EQ(sub.to_global, (std::vector<Vertex>{1, 2, 3}));
}

TEST(InducedSubgraph, PreservesDirection) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 0}, {3, 0}}, true);
  const InducedSubgraph sub = induced_subgraph(g, {0, 1, 2});
  EXPECT_TRUE(sub.graph.directed());
  EXPECT_EQ(sub.graph.num_arcs(), 3u);
}

TEST(InducedSubgraph, RejectsDuplicates) {
  const CsrGraph g = path(4);
  EXPECT_THROW(induced_subgraph(g, {1, 1}), std::logic_error);
}

TEST(LargestComponent, PicksBiggest) {
  // Two components: triangle {0,1,2} and edge {3,4}.
  const CsrGraph g =
      CsrGraph::undirected_from_edges(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  const InducedSubgraph lc = largest_component(g);
  EXPECT_EQ(lc.graph.num_vertices(), 3u);
  EXPECT_EQ(lc.to_global, (std::vector<Vertex>{0, 1, 2}));
  EXPECT_TRUE(is_connected(lc.graph));
}

TEST(AttachPendants, UndirectedAddsDegreeOneVertices) {
  const CsrGraph g = cycle(10);
  const CsrGraph decorated = attach_pendants(g, 5, 42);
  EXPECT_EQ(decorated.num_vertices(), 15u);
  EXPECT_EQ(decorated.num_edges(), 15u);
  for (Vertex v = 10; v < 15; ++v) {
    EXPECT_EQ(decorated.out_degree(v), 1u);
  }
  EXPECT_TRUE(decorated.is_symmetric());
}

TEST(AttachPendants, DirectedPendantsHaveNoInArcs) {
  const CsrGraph g = erdos_renyi(10, 30, true, 1);
  const CsrGraph decorated = attach_pendants(g, 4, 42);
  for (Vertex v = 10; v < 14; ++v) {
    EXPECT_EQ(decorated.out_degree(v), 1u);
    EXPECT_EQ(decorated.in_degree(v), 0u);
  }
}

TEST(AttachPendants, Deterministic) {
  const CsrGraph g = cycle(8);
  EXPECT_EQ(attach_pendants(g, 3, 9), attach_pendants(g, 3, 9));
}

TEST(AttachCommunities, AddsCliquesBridgedByOneEdge) {
  const CsrGraph g = attach_communities(cycle(10), 3, 5, 7);
  EXPECT_EQ(g.num_vertices(), 25u);
  // 10 cycle edges + 3 * (C(5,2) clique + 1 bridge) edges.
  EXPECT_EQ(g.num_edges(), 10u + 3u * (10u + 1u));
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_symmetric());
}

TEST(AttachCommunities, DirectedHostStaysDirected) {
  const CsrGraph g = attach_communities(erdos_renyi(20, 60, true, 1), 2, 4, 3);
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_vertices(), 28u);
  // Community vertices are symmetric even in a directed host.
  EXPECT_EQ(g.out_degree(20), g.in_degree(20));
}

TEST(AttachChains, AddsTendrils) {
  const CsrGraph g = attach_chains(cycle(6), 2, 4, 5);
  EXPECT_EQ(g.num_vertices(), 14u);
  EXPECT_EQ(g.num_edges(), 6u + 8u);
  EXPECT_TRUE(is_connected(g));
  // Chain tips have degree 1, interiors degree 2.
  EXPECT_EQ(g.out_degree(9), 1u);
  EXPECT_EQ(g.out_degree(13), 1u);
  EXPECT_EQ(g.out_degree(8), 2u);
}

TEST(AttachDecorators, Deterministic) {
  const CsrGraph g = cycle(9);
  EXPECT_EQ(attach_communities(g, 2, 4, 11), attach_communities(g, 2, 4, 11));
  EXPECT_EQ(attach_chains(g, 2, 3, 11), attach_chains(g, 2, 3, 11));
}

TEST(TwoCorePeel, EmptyGraph) {
  const CsrGraph g;
  const PeelResult peel = two_core_peel(g);
  EXPECT_TRUE(peel.applied);
  EXPECT_EQ(peel.num_peeled, 0u);
  EXPECT_EQ(peel.core_count(), 0u);
  EXPECT_DOUBLE_EQ(peel.core_fraction(), 1.0);
  EXPECT_EQ(peeled_reduction(g, peel), g);
  std::vector<double> scores;
  expand_peeled_scores(peel, scores);  // no-op, must not assert
  EXPECT_TRUE(scores.empty());
}

TEST(TwoCorePeel, CycleIsAFixpoint) {
  const CsrGraph g = cycle(9);
  const PeelResult peel = two_core_peel(g);
  EXPECT_TRUE(peel.applied);
  EXPECT_EQ(peel.num_peeled, 0u);
  EXPECT_DOUBLE_EQ(peel.core_fraction(), 1.0);
  for (Vertex v = 0; v < 9; ++v) EXPECT_TRUE(peel.in_core[v]);
  // Peeling a 2-core is a no-op: the reduction is the graph itself.
  EXPECT_EQ(peeled_reduction(g, peel), g);
}

TEST(TwoCorePeel, DirectedInputBypassesConservatively) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}, true);
  const PeelResult peel = two_core_peel(g);
  EXPECT_FALSE(peel.applied);
  EXPECT_EQ(peel.num_peeled, 0u);
  for (Vertex v = 0; v < 4; ++v) EXPECT_TRUE(peel.in_core[v]);
  EXPECT_EQ(peeled_reduction(g, peel), g);
  std::vector<double> scores(4, 7.0);
  expand_peeled_scores(peel, scores);
  EXPECT_EQ(scores, std::vector<double>(4, 7.0));
}

TEST(TwoCorePeel, PureTreesPeelCompletelyWithExactScores) {
  for (const CsrGraph& g : {path(7), star(9), binary_tree(15),
                            random_tree(40, 11), CsrGraph::undirected_from_edges(2, {{0, 1}})}) {
    const PeelResult peel = two_core_peel(g);
    EXPECT_TRUE(peel.applied);
    EXPECT_EQ(peel.num_peeled, g.num_vertices());
    EXPECT_EQ(peel.core_count(), 0u);
    // Empty core: the reduction is edgeless and every score is closed-form.
    const CsrGraph reduced = peeled_reduction(g, peel);
    EXPECT_EQ(reduced.num_arcs(), 0u);
    EXPECT_EQ(reduced.num_vertices(), g.num_vertices());
    testing::expect_scores_near(brandes_bc(g), peel_then_brandes(g));
  }
}

TEST(TwoCorePeel, DisconnectedGraphWithTreeComponents) {
  // Triangle {0,1,2}, path {3,4,5}, isolated {6}.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
  const PeelResult peel = two_core_peel(g);
  EXPECT_EQ(peel.num_peeled, 4u);
  EXPECT_EQ(peel.core_count(), 3u);
  for (Vertex v : {0u, 1u, 2u}) EXPECT_TRUE(peel.in_core[v]);
  for (Vertex v : {3u, 4u, 5u, 6u}) EXPECT_FALSE(peel.in_core[v]);
  // Component sizes stay component-local: vertex 4 is the centre of its own
  // 3-vertex path, not of the whole graph.
  testing::expect_scores_near(brandes_bc(g), peel_then_brandes(g));
}

TEST(TwoCorePeel, AnchorBookkeepingOnHangingChain) {
  // Triangle {0,1,2} with the chain 0-3-4 hanging off vertex 0.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      5, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}});
  const PeelResult peel = two_core_peel(g);
  ASSERT_EQ(peel.num_peeled, 2u);
  // FIFO ascending: the tip 4 first, then 3 once its degree drops.
  EXPECT_EQ(peel.forest[0].vertex, 4u);
  EXPECT_EQ(peel.forest[0].parent, 3u);
  EXPECT_EQ(peel.forest[0].anchor, 0u);
  EXPECT_EQ(peel.forest[0].subtree_size, 1u);
  EXPECT_EQ(peel.forest[1].vertex, 3u);
  EXPECT_EQ(peel.forest[1].parent, 0u);
  EXPECT_EQ(peel.forest[1].anchor, 0u);
  EXPECT_EQ(peel.forest[1].subtree_size, 2u);
  // Ordered pairs through 3: (4 <-> {0,1,2}) = 2 * 1 * 3 = 6.
  EXPECT_DOUBLE_EQ(peel.forest[1].score, 6.0);
  EXPECT_DOUBLE_EQ(peel.forest[0].score, 0.0);
  // Anchor 0 absorbs both vertices; flat overcount is sq - r = 4 - 2.
  EXPECT_EQ(peel.anchor_weight[0], 2u);
  EXPECT_DOUBLE_EQ(peel.core_correction[0], -2.0);
  testing::expect_scores_near(brandes_bc(g), peel_then_brandes(g));
}

TEST(TwoCorePeel, ReductionFlattensSubtreesToPendants) {
  const CsrGraph g =
      attach_pendants(attach_chains(cycle(8), 3, 4, 5), 4, 6);
  const PeelResult peel = two_core_peel(g);
  EXPECT_EQ(peel.num_peeled, g.num_vertices() - 8);
  const CsrGraph reduced = peeled_reduction(g, peel);
  EXPECT_EQ(reduced.num_vertices(), g.num_vertices());
  // Every peeled vertex is anchored (the host cycle survives) and becomes a
  // depth-1 pendant of its anchor.
  for (const PeeledVertex& p : peel.forest) {
    ASSERT_NE(p.anchor, kInvalidVertex);
    EXPECT_TRUE(peel.in_core[p.anchor]);
    EXPECT_EQ(reduced.out_degree(p.vertex), 1u);
    EXPECT_EQ(reduced.out_neighbors(p.vertex)[0], p.anchor);
  }
  EXPECT_EQ(reduced.num_arcs(),
            static_cast<EdgeId>(2 * 8 + 2 * peel.num_peeled));
  testing::expect_scores_near(brandes_bc(g), peel_then_brandes(g));
}

TEST(TwoCorePeel, CoreReductionIsolatesTheFringe) {
  const CsrGraph g = attach_pendants(attach_chains(cycle(8), 3, 4, 5), 4, 6);
  const PeelResult peel = two_core_peel(g);
  const CsrGraph core = peeled_core_reduction(g, peel);
  EXPECT_EQ(core.num_vertices(), g.num_vertices());
  // Only the host cycle's edges survive; no pendant arcs at all.
  EXPECT_EQ(core.num_arcs(), static_cast<EdgeId>(2 * 8));
  for (const PeeledVertex& p : peel.forest) {
    EXPECT_EQ(core.out_degree(p.vertex), 0u);
  }
  // Fixpoint graphs come back as an identity copy.
  const CsrGraph ring = cycle(5);
  EXPECT_EQ(peeled_core_reduction(ring, two_core_peel(ring)), ring);
}

TEST(TwoCorePeel, InjectedWeightsLandInExactlyOneHome) {
  // Triangles {0,1,2} and {2,3,4} share the articulation point 2, which
  // also anchors the peeled chain 2-5-6 — its weight must land in exactly
  // one of the two groups containing 2, not both. Vertex 1 anchors a plain
  // pendant and lives in a single group.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      8, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}, {2, 5}, {5, 6}, {1, 7}});
  const PeelResult peel = two_core_peel(g);
  ASSERT_EQ(peel.num_peeled, 3u);
  const CsrGraph core = peeled_core_reduction(g, peel);
  PartitionOptions popts;
  popts.compute_reach = false;
  Decomposition dec = decompose(core, popts);
  const Vertex pendants_before = dec.num_pendants_removed;
  inject_pendant_weights(dec, peel.anchor_weight);
  EXPECT_EQ(dec.num_pendants_removed, pendants_before + 3);
  // Each anchor's weight lands in exactly one sub-graph, gamma included.
  for (Vertex global : {1u, 2u}) {
    double total_weight = 0.0;
    for (const Subgraph& sg : dec.subgraphs) {
      for (Vertex local = 0; local < sg.num_vertices(); ++local) {
        if (sg.to_global[local] != global || sg.pendant_weight.empty()) continue;
        total_weight += sg.pendant_weight[local];
        if (sg.pendant_weight[local] > 0.0) {
          EXPECT_GE(sg.gamma[local], sg.pendant_weight[local]);
        }
      }
    }
    EXPECT_DOUBLE_EQ(total_weight,
                     static_cast<double>(peel.anchor_weight[global]));
  }
}

TEST(TwoCorePeel, WeightedCoreSolveMatchesBrandesUnderBothReachMethods) {
  // Full weighted pipeline on the core-only reduction: decompose, inject
  // the anchor multiplicities, weighted reach counts, score, re-expand.
  const CsrGraph g =
      attach_pendants(attach_chains(caveman(3, 4, 7), 3, 3, 8), 5, 9);
  const std::vector<double> expected = brandes_bc(g);
  const PeelResult peel = two_core_peel(g);
  ASSERT_GT(peel.num_peeled, 0u);
  const CsrGraph core = peeled_core_reduction(g, peel);
  for (ReachMethod method : {ReachMethod::kTreeDp, ReachMethod::kBfs}) {
    SCOPED_TRACE(method == ReachMethod::kTreeDp ? "tree-dp" : "bfs");
    PartitionOptions popts;
    popts.compute_reach = false;
    Decomposition dec = decompose(core, popts);
    inject_pendant_weights(dec, peel.anchor_weight);
    compute_reach_counts(core, dec, method, &peel.anchor_weight);
    std::vector<double> scores = apgre_bc_with_decomposition(core, dec);
    expand_peeled_scores(peel, scores);
    testing::expect_scores_near(expected, scores);
  }
}

TEST(TwoCorePeel, Deterministic) {
  const CsrGraph g = attach_chains(barabasi_albert(60, 2, 3), 5, 3, 9);
  const PeelResult a = two_core_peel(g);
  const PeelResult b = two_core_peel(g);
  ASSERT_EQ(a.forest.size(), b.forest.size());
  for (std::size_t i = 0; i < a.forest.size(); ++i) {
    EXPECT_EQ(a.forest[i].vertex, b.forest[i].vertex);
    EXPECT_EQ(a.forest[i].anchor, b.forest[i].anchor);
    EXPECT_EQ(a.forest[i].subtree_size, b.forest[i].subtree_size);
    EXPECT_DOUBLE_EQ(a.forest[i].score, b.forest[i].score);
  }
  EXPECT_EQ(a.in_core, b.in_core);
  EXPECT_EQ(a.anchor_weight, b.anchor_weight);
}

TEST(TwoCorePeel, ExactAcrossSeededCorpus) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& gc : testing::graph_family(seed, /*tiny=*/false)) {
      if (gc.graph.directed()) continue;
      SCOPED_TRACE(gc.name + " seed " + std::to_string(seed));
      testing::expect_scores_near(brandes_bc(gc.graph),
                                  peel_then_brandes(gc.graph));
    }
  }
}

}  // namespace
}  // namespace apgre
