// Seeded property sweep over the check subsystem: the differential oracle
// across every exact algorithm, the metamorphic rules, and the
// decomposition / ApgreStats invariants, each over the random-graph corpus
// (all generator classes, directed and undirected, plus the weighted
// family). A failing case prints its (seed, case) pair; reproduce it with
//   apgre_diff --seed <seed> --cases <case> --verbose
// as described in docs/TESTING.md.
#include <gtest/gtest.h>

#include <set>

#include "bc/bc.hpp"
#include "bc/brandes.hpp"
#include "check/corpus.hpp"
#include "check/dynamic_metamorphic.hpp"
#include "check/invariants.hpp"
#include "check/metamorphic.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "test_util.hpp"

namespace apgre {
namespace {

constexpr std::uint64_t kDifferentialSeeds = 6;
constexpr std::uint64_t kMetamorphicSeeds = 3;
constexpr std::uint64_t kInvariantSeeds = 3;
constexpr std::uint64_t kWeightedSeeds = 4;

// ---- Differential oracle -------------------------------------------------

TEST(CheckSweep, EveryExactAlgorithmMatchesBrandesOnEveryCorpusCase) {
  for (std::uint64_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const OracleReport report = differential_check(c.graph);
      EXPECT_TRUE(report.ok) << report.summary();
    }
  }
}

TEST(CheckSweep, WeightedFamilyMatchesWeightedBrandes) {
  for (std::uint64_t seed = 1; seed <= kWeightedSeeds; ++seed) {
    for (const WeightedCorpusCase& c : weighted_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const OracleReport report = weighted_differential_check(c.graph);
      EXPECT_TRUE(report.ok) << report.summary();
    }
  }
}

TEST(CheckOracle, ExactAlgorithmSetIncludesNaiveOnlyWhenSmall) {
  const CsrGraph small = path(10);
  const auto with_naive = exact_algorithm_set(small);
  EXPECT_EQ(with_naive.front(), Algorithm::kNaive);
  const auto without = exact_algorithm_set(small, /*max_naive_vertices=*/5);
  for (Algorithm a : without) EXPECT_NE(a, Algorithm::kNaive);
  EXPECT_EQ(with_naive.size(), without.size() + 1);
}

TEST(CheckOracle, CompareScoresBlamesTheWorstVertex) {
  const std::vector<double> expected{1.0, 2.0, 3.0, 4.0};
  std::vector<double> actual = expected;
  actual[1] += 0.5;   // small offence
  actual[3] += 10.0;  // worst offence
  const ScoreComparison cmp = compare_scores(expected, actual, 1e-7, 1e-6);
  EXPECT_FALSE(cmp.ok);
  EXPECT_EQ(cmp.num_violations, 2u);
  EXPECT_EQ(cmp.worst_vertex, 3u);
  EXPECT_DOUBLE_EQ(cmp.expected_score, 4.0);
  EXPECT_DOUBLE_EQ(cmp.actual_score, 14.0);
  EXPECT_DOUBLE_EQ(cmp.max_divergence, 10.0);
  EXPECT_GT(cmp.actual_norm, cmp.expected_norm);
}

TEST(CheckOracle, CompareScoresAcceptsAccumulationNoise) {
  const std::vector<double> expected{100.0, 0.0, 1e6};
  std::vector<double> actual = expected;
  actual[2] += 1e-2;  // within 1e-7 relative of 1e6... no: 0.1 tolerance
  EXPECT_TRUE(compare_scores(expected, actual, 1e-7, 1e-6).ok);
}

// ---- Dynamic differential (DynamicBc vs static oracle) -------------------

TEST(CheckSweep, DynamicUpdatesMatchStaticRecomputeAcrossCorpus) {
  constexpr std::uint64_t kDynamicSeeds = 3;
  constexpr std::size_t kStepsPerGraph = 6;
  for (std::uint64_t seed = 1; seed <= kDynamicSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const std::vector<DynamicStep> steps =
          random_dynamic_steps(c.graph, kStepsPerGraph, seed * 131 + 7);
      const OracleReport report = dynamic_differential_check(c.graph, steps);
      EXPECT_TRUE(report.ok) << report.summary();
    }
  }
}

TEST(CheckOracle, RandomDynamicStepsAreAlwaysApplicable) {
  // Every generated step must be valid against the evolving graph: inserts
  // name absent edges, removals name present ones. DynamicBc throws on a
  // violation, which dynamic_differential_check would report as a failure,
  // so an exception-free ok run is the assertion.
  const CsrGraph g = attach_pendants(caveman(3, 5, 21), 6, 22);
  const std::vector<DynamicStep> steps = random_dynamic_steps(g, 12, 99);
  EXPECT_EQ(steps.size(), 12u);
  const OracleReport report = dynamic_differential_check(g, steps);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.algorithms.size(), 12u) << "one report entry per step";
}

TEST(CheckOracle, DynamicStepsAreDeterministicPerSeed) {
  const CsrGraph g = caveman(4, 4, 13);
  const auto a = random_dynamic_steps(g, 8, 5);
  const auto b = random_dynamic_steps(g, 8, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_EQ(a[i].inserting, b[i].inserting);
  }
}

// ---- Metamorphic rules ---------------------------------------------------

TEST(CheckSweep, MetamorphicRulesHoldForEveryExactAlgorithm) {
  std::size_t applied = 0;
  std::size_t graphs = 0;
  for (std::uint64_t seed = 1; seed <= kMetamorphicSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      // Rotate the algorithm under test so the sweep covers the whole
      // family without rerunning every rule 8 times per graph.
      const auto pool = exact_algorithm_set(c.graph, /*max_naive_vertices=*/0);
      BcOptions opts;
      opts.algorithm = pool[graphs++ % pool.size()];
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name + " " +
                   algorithm_name(opts.algorithm));
      for (const MetamorphicResult& r :
           run_metamorphic_rules(c.graph, opts, seed)) {
        if (!r.applied) continue;
        ++applied;
        EXPECT_TRUE(r.ok) << r.rule << ": " << r.detail;
      }
    }
  }
  // 4 rules always apply (relabel, pendant, isolated, union); subdivision
  // needs an undirected graph with a bridge.
  EXPECT_GE(applied, graphs * 4);
}

// ---- Dynamic metamorphic rules -------------------------------------------
// Closed-form score predictions across a graph *mutation*, checked against
// the incremental engine (check/dynamic_metamorphic.hpp).

TEST(CheckSweep, DynamicMetamorphicRulesHoldOnTheCorpus) {
  std::size_t applied = 0;
  for (std::uint64_t seed = 1; seed <= kMetamorphicSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      if (c.graph.num_vertices() == 0) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      BcOptions opts;
      for (const MetamorphicResult& r :
           run_dynamic_metamorphic_rules(c.graph, opts, seed)) {
        if (!r.applied) continue;
        ++applied;
        EXPECT_TRUE(r.ok) << r.rule << ": " << r.detail;
      }
    }
  }
  EXPECT_GT(applied, 0u) << "no dynamic rule ever applied";
}

TEST(CheckDynamicMetamorphic, PendantAttachAppliesEverywhere) {
  BcOptions opts;
  const MetamorphicResult r =
      check_dynamic_pendant_attach(caveman(3, 4, 5), opts, /*seed=*/5);
  EXPECT_TRUE(r.applied);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(CheckDynamicMetamorphic, BridgeDeleteNeedsABridge) {
  BcOptions opts;
  const MetamorphicResult r =
      check_dynamic_bridge_delete(caveman(3, 4, 5), opts, /*seed=*/5);
  EXPECT_TRUE(r.applied) << "caveman bridges exist";
  EXPECT_TRUE(r.ok) << r.detail;
  const MetamorphicResult none =
      check_dynamic_bridge_delete(complete(5), opts, /*seed=*/5);
  EXPECT_FALSE(none.applied);  // biconnected: no bridge
}

TEST(CheckDynamicMetamorphic, ChordRoundtripStaysLocal) {
  BcOptions opts;
  // Two cycles sharing an articulation point: plenty of chord candidates.
  const CsrGraph g = CsrGraph::undirected_from_edges(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
          {0, 6}, {6, 7}, {7, 8}, {8, 0}});
  const MetamorphicResult r =
      check_dynamic_chord_roundtrip(g, opts, /*seed=*/3);
  EXPECT_TRUE(r.applied);
  EXPECT_TRUE(r.ok) << r.detail;
  const MetamorphicResult directed = check_dynamic_chord_roundtrip(
      erdos_renyi(8, 16, true, 2), opts, /*seed=*/3);
  EXPECT_FALSE(directed.applied);  // directed graphs never classify local
}

TEST(CheckMetamorphic, SubdivisionAppliesOnBridgeHeavyGraphs) {
  BcOptions opts;
  opts.algorithm = Algorithm::kBrandesSerial;
  const MetamorphicResult r =
      check_bridge_subdivision(caveman(4, 5, 7), opts, /*seed=*/7);
  EXPECT_TRUE(r.applied);
  EXPECT_TRUE(r.ok) << r.detail;
  const MetamorphicResult none =
      check_bridge_subdivision(complete(6), opts, /*seed=*/7);
  EXPECT_FALSE(none.applied);  // biconnected: no bridge to subdivide
}

TEST(CheckMetamorphic, PendantRuleCoversDirectedGraphs) {
  BcOptions opts;
  opts.algorithm = Algorithm::kApgre;
  const CsrGraph g = rmat(5, 4, 0.45, 0.2, 0.2, false, 11);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const MetamorphicResult r = check_pendant_attachment(g, opts, seed);
    EXPECT_TRUE(r.applied);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
  }
}

TEST(CheckMetamorphic, UnionRejectsMixedDirectedness) {
  BcOptions opts;
  const MetamorphicResult r = check_disjoint_union(
      path(4), erdos_renyi(6, 10, true, 1), opts);
  EXPECT_FALSE(r.applied);
}

TEST(CheckMetamorphic, RulesDetectABrokenAlgorithm) {
  // The sampling estimator is intentionally not exact: the relabel rule
  // must flag it (different permutations sample different sources), which
  // proves the harness can fail at all.
  BcOptions opts;
  opts.algorithm = Algorithm::kSampling;
  opts.num_samples = 5;
  const CsrGraph g = barabasi_albert(80, 2, 3);
  bool any_failure = false;
  for (std::uint64_t seed = 1; seed <= 4 && !any_failure; ++seed) {
    const MetamorphicResult r = check_relabel_invariance(g, opts, seed);
    any_failure = r.applied && !r.ok;
  }
  EXPECT_TRUE(any_failure);
}

// ---- 2-core peel rules ---------------------------------------------------

TEST(CheckMetamorphic, PeelAttachPredictsDecoratedScores) {
  BcOptions opts;
  opts.algorithm = Algorithm::kBrandesSerial;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MetamorphicResult r =
        check_peel_attachment(caveman(3, 5, seed), opts, seed);
    EXPECT_TRUE(r.applied);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.detail;
  }
  const MetamorphicResult directed =
      check_peel_attachment(erdos_renyi(8, 16, true, 2), opts, /*seed=*/3);
  EXPECT_FALSE(directed.applied);  // two_core_peel bypasses directed inputs
}

TEST(CheckMetamorphic, PeelSolveCoversTreesCyclesAndDirectedBypass) {
  BcOptions opts;
  opts.algorithm = Algorithm::kBrandesSerial;
  // Pure tree: the core is empty and every score is closed-form.
  const MetamorphicResult tree =
      check_peel_solve_equivalence(random_tree(40, 3), opts);
  EXPECT_TRUE(tree.applied);
  EXPECT_TRUE(tree.ok) << tree.detail;
  // 2-core fixpoint: peeling removes nothing.
  const MetamorphicResult fixpoint =
      check_peel_solve_equivalence(cycle(12), opts);
  EXPECT_TRUE(fixpoint.applied);
  EXPECT_TRUE(fixpoint.ok) << fixpoint.detail;
  // Directed input: the knob must be a bypassed no-op, not a wrong answer.
  const MetamorphicResult directed =
      check_peel_solve_equivalence(erdos_renyi(10, 24, true, 5), opts);
  EXPECT_TRUE(directed.applied);
  EXPECT_TRUE(directed.ok) << directed.detail;
}

TEST(CheckSweep, SolverPeelMatchesUnpeeledAcrossCorpus) {
  // The peel knob must be score-invisible on every corpus case (tree-heavy,
  // biconnected, directed, empty) under the full Solver path — weighted
  // core reduction, gamma/reach injection, closed-form re-expansion.
  BcOptions off;
  off.algorithm = Algorithm::kApgre;
  BcOptions on = off;
  on.apgre.partition.peel_two_core = true;
  for (std::uint64_t seed = 1; seed <= kMetamorphicSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const BcResult a = betweenness(c.graph, off);
      const BcResult b = betweenness(c.graph, on);
      ASSERT_TRUE(a.status.ok() && b.status.ok());
      const ScoreComparison cmp = compare_scores(a.scores, b.scores);
      EXPECT_TRUE(cmp.ok) << "worst vertex " << cmp.worst_vertex << ": "
                          << cmp.expected_score << " vs " << cmp.actual_score;
    }
  }
}

TEST(CheckSweep, IncrementalTrajectoriesStayExactWithPeelEnabled) {
  // Drive the incremental engine with peeling enabled through random
  // insert/remove trajectories: updates that touch the peeled forest must
  // route structural (re-peel) and still match the static oracle.
  BcOptions peeled;
  peeled.algorithm = Algorithm::kApgre;
  peeled.apgre.partition.peel_two_core = true;
  constexpr std::size_t kStepsPerGraph = 4;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      if (c.graph.num_vertices() < 2) continue;
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      const std::vector<DynamicStep> steps =
          random_dynamic_steps(c.graph, kStepsPerGraph, seed * 211 + 17);
      const OracleReport report =
          incremental_differential_check(c.graph, steps, peeled);
      EXPECT_TRUE(report.ok) << report.summary();
    }
  }
}

// ---- Decomposition / stats invariants -----------------------------------

TEST(CheckSweep, DecompositionInvariantsHoldAcrossCorpusAndReachMethods) {
  for (std::uint64_t seed = 1; seed <= kInvariantSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      PartitionOptions popts;
      popts.reach = ReachMethod::kBfs;
      const Decomposition by_bfs = decompose(c.graph, popts);
      for (const std::string& v :
           check_decomposition_invariants(c.graph, by_bfs)) {
        ADD_FAILURE() << "kBfs: " << v;
      }
      if (!c.graph.directed()) {
        popts.reach = ReachMethod::kTreeDp;
        const Decomposition by_tree = decompose(c.graph, popts);
        for (const std::string& v :
             check_decomposition_invariants(c.graph, by_tree)) {
          ADD_FAILURE() << "kTreeDp: " << v;
        }
      }
    }
  }
}

TEST(CheckSweep, DecompositionAgreementHoldsForBothBiconnectivityPasses) {
  // Same sweep apgre_diff runs with --parallel-bcc on/off: the selected
  // pass's blocks against the standalone AP finder, the edge-partition
  // property, the forest shape — and, parallel side, the canonicalized
  // serial structures.
  for (std::uint64_t seed = 1; seed <= kInvariantSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      for (const std::string& v : check_decomposition_agreement(
               c.graph, ParallelDecomposition::kOff)) {
        ADD_FAILURE() << "serial: " << v;
      }
      for (const std::string& v : check_decomposition_agreement(
               c.graph, ParallelDecomposition::kOn)) {
        ADD_FAILURE() << "parallel: " << v;
      }
    }
  }
}

TEST(CheckInvariants, AgreementHoldsOnDirectedAndDegenerateShapes) {
  // Directed inputs route through the projection (and the parallel pass's
  // serial fallback); degenerate shapes exercise the empty-block edges.
  EXPECT_TRUE(check_decomposition_agreement(paper_figure3(),
                                            ParallelDecomposition::kOn)
                  .empty());
  EXPECT_TRUE(check_decomposition_agreement(
                  CsrGraph::undirected_from_edges(3, {}),
                  ParallelDecomposition::kOn)
                  .empty());
  EXPECT_TRUE(check_decomposition_agreement(caveman(3, 5, 4),
                                            ParallelDecomposition::kAuto)
                  .empty());
}

TEST(CheckSweep, ApgreStatsInvariantsHoldAcrossCorpus) {
  for (std::uint64_t seed = 1; seed <= kInvariantSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      BcOptions opts;
      opts.algorithm = Algorithm::kApgre;
      const BcResult result = betweenness(c.graph, opts);
      for (const std::string& v :
           check_stats_invariants(c.graph, result.apgre_stats)) {
        ADD_FAILURE() << v;
      }
    }
  }
}

// The same invariants for peeled solves, checked against the peeled core
// reduction the solve scored (forests peel to nothing, directed inputs
// bypass the peel).
TEST(CheckSweep, ApgreStatsInvariantsHoldAcrossCorpusWithPeel) {
  for (std::uint64_t seed = 1; seed <= kInvariantSeeds; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + c.name);
      BcOptions opts;
      opts.algorithm = Algorithm::kApgre;
      opts.apgre.partition.peel_two_core = true;
      const BcResult result = betweenness(c.graph, opts);
      for (const std::string& v :
           check_stats_invariants(c.graph, result.apgre_stats, opts.apgre)) {
        ADD_FAILURE() << v;
      }
    }
  }
}

TEST(CheckInvariants, CorruptedPeeledStatsAreFlagged) {
  const CsrGraph g = attach_pendants(caveman(4, 6, 2), 10, 3);
  BcOptions opts;
  opts.algorithm = Algorithm::kApgre;
  opts.apgre.partition.peel_two_core = true;
  const ApgreStats stats = betweenness(g, opts).apgre_stats;
  ASSERT_GT(stats.peeled_vertices, 0u);
  ASSERT_TRUE(check_stats_invariants(g, stats, opts.apgre).empty());
  // Peeled stats against the unpeeled reference are still recognised as
  // peeled: the reference follows the stats' peeled-vertex count.
  EXPECT_TRUE(check_stats_invariants(g, stats).empty());

  ApgreStats wrong_peel = stats;
  wrong_peel.peeled_vertices += 1;
  EXPECT_FALSE(check_stats_invariants(g, wrong_peel, opts.apgre).empty());

  ApgreStats unpeeled = stats;
  unpeeled.peeled_vertices = 0;
  EXPECT_FALSE(check_stats_invariants(g, unpeeled, opts.apgre).empty());

  ApgreStats wrong_pendants = stats;
  wrong_pendants.num_pendants_removed += 1;
  EXPECT_FALSE(check_stats_invariants(g, wrong_pendants, opts.apgre).empty());

  ApgreStats wrong_redundancy = stats;
  wrong_redundancy.total_redundancy = 0.0;
  EXPECT_FALSE(check_stats_invariants(g, wrong_redundancy, opts.apgre).empty());
}

TEST(CheckInvariants, CorruptedStatsAreFlagged) {
  const CsrGraph g = attach_pendants(caveman(4, 6, 2), 10, 3);
  BcOptions opts;
  opts.algorithm = Algorithm::kApgre;
  ApgreStats stats = betweenness(g, opts).apgre_stats;
  ASSERT_TRUE(check_stats_invariants(g, stats).empty());

  ApgreStats wrong_subgraphs = stats;
  wrong_subgraphs.num_subgraphs += 1;
  EXPECT_FALSE(check_stats_invariants(g, wrong_subgraphs).empty());

  ApgreStats wrong_pendants = stats;
  wrong_pendants.num_pendants_removed += 1;
  EXPECT_FALSE(check_stats_invariants(g, wrong_pendants).empty());

  ApgreStats wrong_redundancy = stats;
  wrong_redundancy.total_redundancy = 1.5;
  EXPECT_FALSE(check_stats_invariants(g, wrong_redundancy).empty());

  ApgreStats wrong_timing = stats;
  wrong_timing.partition_seconds = wrong_timing.total_seconds + 1.0;
  EXPECT_FALSE(check_stats_invariants(g, wrong_timing).empty());
}

TEST(CheckInvariants, CorruptedDecompositionIsFlagged) {
  const CsrGraph g = caveman(4, 6, 5);
  Decomposition dec = decompose(g);
  ASSERT_TRUE(check_decomposition_invariants(g, dec).empty());

  Decomposition wrong_alpha = dec;
  for (Subgraph& sg : wrong_alpha.subgraphs) {
    if (!sg.boundary_aps.empty()) {
      sg.alpha[sg.boundary_aps.front()] += 1;
      break;
    }
  }
  EXPECT_FALSE(check_decomposition_invariants(g, wrong_alpha).empty());

  Decomposition wrong_counter = dec;
  wrong_counter.num_articulation_points += 1;
  EXPECT_FALSE(check_decomposition_invariants(g, wrong_counter).empty());
}

TEST(CheckInvariants, PendantCensusMatchesDegreeStructure) {
  EXPECT_EQ(pendant_census(path(2)), 1u);   // K2 keeps the lower id as root
  EXPECT_EQ(pendant_census(star(5)), 4u);   // every leaf is a pendant
  EXPECT_EQ(pendant_census(cycle(6)), 0u);  // biconnected: none
  const CsrGraph decorated = attach_pendants(cycle(8), 5, 1);
  EXPECT_EQ(pendant_census(decorated), 5u);
}

// ---- Satellite: algorithm name round-trips -------------------------------

TEST(CheckNames, EveryAlgorithmRoundTripsAndNamesAreUnique) {
  const Algorithm all[] = {
      Algorithm::kNaive,         Algorithm::kBrandesSerial,
      Algorithm::kParallelPreds, Algorithm::kParallelSuccs,
      Algorithm::kLockFree,      Algorithm::kCoarse,
      Algorithm::kHybrid,        Algorithm::kApgre,
      Algorithm::kAlgebraic,     Algorithm::kSampling,
  };
  std::set<std::string> names;
  for (Algorithm a : all) {
    const std::string name = algorithm_name(a);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(algorithm_from_name(name), a);
  }
  EXPECT_EQ(names.size(), 10u);
  // Documented aliases resolve; near-misses do not.
  EXPECT_EQ(algorithm_from_name("async"), Algorithm::kCoarse);
  EXPECT_EQ(algorithm_from_name("batched"), Algorithm::kAlgebraic);
  for (const char* bad : {"", "bogus", "APGRE", " apgre", "apgre ", "brandes"}) {
    EXPECT_THROW(algorithm_from_name(bad), OptionError) << "`" << bad << "`";
  }
}

// ---- Satellite: undirected halving across the family ---------------------

TEST(CheckHalving, HalvingIsConsistentAcrossEveryExactAlgorithm) {
  const CsrGraph g = attach_pendants(caveman(4, 6, 9), 8, 4);
  ASSERT_FALSE(g.directed());
  const auto full = brandes_bc(g);
  std::vector<double> halved_reference(full.size());
  for (std::size_t v = 0; v < full.size(); ++v) {
    halved_reference[v] = 0.5 * full[v];
  }
  for (Algorithm a : exact_algorithm_set(g)) {
    SCOPED_TRACE(algorithm_name(a));
    BcOptions opts;
    opts.algorithm = a;
    opts.undirected_halving = true;
    testing::expect_scores_near(halved_reference, betweenness(g, opts).scores);
  }
}

TEST(CheckHalving, HalvingIsIgnoredOnDirectedInputsForEveryAlgorithm) {
  const CsrGraph g = paper_figure3();
  ASSERT_TRUE(g.directed());
  const auto full = brandes_bc(g);
  for (Algorithm a : exact_algorithm_set(g)) {
    SCOPED_TRACE(algorithm_name(a));
    BcOptions opts;
    opts.algorithm = a;
    opts.undirected_halving = true;
    testing::expect_scores_near(full, betweenness(g, opts).scores);
  }
}

}  // namespace
}  // namespace apgre
