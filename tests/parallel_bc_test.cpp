#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "bc/apgre.hpp"
#include "bc/brandes.hpp"
#include "bc/coarse.hpp"
#include "bc/hybrid.hpp"
#include "bc/lockfree.hpp"
#include "bc/parallel_preds.hpp"
#include "bc/parallel_succs.hpp"
#include "bc/weighted.hpp"
#include "graph/generators.hpp"
#include "graph/weighted.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

using BcFn = std::vector<double> (*)(const CsrGraph&, int threads);

std::vector<double> hybrid_default(const CsrGraph& g, int threads) {
  return hybrid_bc(g, {}, threads);
}

struct NamedAlgorithm {
  const char* name;
  BcFn fn;
};

const NamedAlgorithm kAlgorithms[] = {
    {"preds", parallel_preds_bc}, {"succs", parallel_succs_bc},
    {"lockfree", lockfree_bc},    {"coarse", coarse_bc},
    {"hybrid", hybrid_default},
};

TEST(ParallelBc, AllAgreeOnShapes) {
  for (const CsrGraph& g :
       {path(9), star(12), cycle(10), complete(7), barbell(5, 2),
        binary_tree(15)}) {
    const auto expected = brandes_bc(g);
    for (const auto& alg : kAlgorithms) {
      SCOPED_TRACE(alg.name);
      testing::expect_scores_near(expected, alg.fn(g, 0));
    }
  }
}

TEST(ParallelBc, AllHandleDisconnectedGraphs) {
  const CsrGraph g = CsrGraph::undirected_from_edges(
      9, {{0, 1}, {1, 2}, {2, 0}, {4, 5}, {6, 7}, {7, 8}});
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, 0));
  }
}

TEST(ParallelBc, AllHandleEmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(0, {}, false);
  for (const auto& alg : kAlgorithms) {
    EXPECT_TRUE(alg.fn(g, 0).empty()) << alg.name;
  }
}

TEST(ParallelBc, DirectedPaperFigure3) {
  const CsrGraph g = paper_figure3();
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, 0));
  }
}

TEST(HybridBc, ForcedBottomUpStillCorrect) {
  // alpha tiny + beta huge forces bottom-up from the first level.
  HybridOptions opts;
  opts.alpha = 1e-9;
  opts.beta = 1e9;
  const CsrGraph g = barabasi_albert(200, 3, 7);
  testing::expect_scores_near(brandes_bc(g), hybrid_bc(g, opts));
}

TEST(HybridBc, ForcedTopDownStillCorrect) {
  HybridOptions opts;
  opts.alpha = 1e9;  // never switch
  const CsrGraph g = barabasi_albert(200, 3, 8);
  testing::expect_scores_near(brandes_bc(g), hybrid_bc(g, opts));
}

TEST(ParallelBc, MultithreadedRunsMatchSerial) {
  // Even on a single hardware core, oversubscribed threads must not change
  // results (races would).
  const CsrGraph g = testing::graph_family(9, /*tiny=*/false)[4].graph;  // BA
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, 4));
  }
}

// Pools four times the machine's width: every scheduler-native parallel
// kernel — the five baselines, weighted APGRE and directed APGRE (whose
// reach counts take the BFS pass) — stays exact and finishes promptly
// with more workers than cores.
TEST(ParallelBc, FourfoldOversubscribedPoolsStayExact) {
  const int threads =
      4 * std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  CsrGraph g;
  for (testing::GraphCase& c : testing::graph_family(19, /*tiny=*/false)) {
    if (c.name == "satellites_directed") g = std::move(c.graph);
  }
  ASSERT_TRUE(g.directed());
  const auto expected = brandes_bc(g);
  for (const auto& alg : kAlgorithms) {
    SCOPED_TRACE(alg.name);
    testing::expect_scores_near(expected, alg.fn(g, threads));
  }
  ApgreOptions bfs_reach;
  bfs_reach.partition.reach = ReachMethod::kBfs;
  testing::expect_scores_near(expected,
                              apgre_bc(g, bfs_reach, nullptr, {}, threads));
  const WeightedCsrGraph wg = with_random_weights(g, 1, 5, 19);
  testing::expect_scores_near(weighted_brandes_bc(wg),
                              weighted_apgre_bc(wg, {}, nullptr, threads));
}

class ParallelSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ParallelSweep, AgreesWithBrandesOnRandomGraphs) {
  const auto [seed, threads] = GetParam();
  for (const auto& gc : testing::graph_family(seed, /*tiny=*/true)) {
    SCOPED_TRACE(gc.name);
    const auto expected = brandes_bc(gc.graph);
    for (const auto& alg : kAlgorithms) {
      SCOPED_TRACE(alg.name);
      testing::expect_scores_near(expected, alg.fn(gc.graph, threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelSweep,
                         ::testing::Combine(::testing::Values<std::uint64_t>(6, 16, 26),
                                            ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace apgre
