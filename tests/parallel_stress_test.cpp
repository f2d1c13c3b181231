// Multi-threaded stress tier for the five parallel BC backends (preds,
// succs, lockfree, coarse, hybrid) and APGRE: repeated runs on adversarial
// shapes — a star (one giant level), a long path (many one-vertex levels),
// a dense biconnected component and a barbell — differentially checked
// against serial Brandes, at thread counts {1, 2, max(4, hardware)}, plus
// concurrent callers driving every kernel at once. The host runs ctest on
// few cores, so the thread counts oversubscribe deliberately: context
// switches mid-kernel widen race windows, which is exactly what this tier
// (and the ThreadSanitizer CI job that runs it) is for.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bc/bc.hpp"
#include "bc/weighted.hpp"
#include "check/corpus.hpp"
#include "check/oracle.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "graph/weighted.hpp"

namespace apgre {
namespace {

constexpr int kRepetitions = 3;

const std::vector<Algorithm>& parallel_backends() {
  static const std::vector<Algorithm> backends = {
      Algorithm::kParallelPreds, Algorithm::kParallelSuccs, Algorithm::kLockFree,
      Algorithm::kCoarse, Algorithm::kHybrid};
  return backends;
}

/// At least 4 workers even on small hosts, more on wide ones.
int wide_threads() {
  return std::max(4, static_cast<int>(std::thread::hardware_concurrency()));
}

std::vector<int> thread_counts() {
  std::vector<int> counts = {1, 2, wide_threads()};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

struct AdversarialGraph {
  std::string name;
  CsrGraph graph;
};

std::vector<AdversarialGraph> adversarial_graphs() {
  std::vector<AdversarialGraph> graphs;
  // One giant BFS level: every worker hammers the same frontier.
  graphs.push_back({"star_200", star(200)});
  // 200 levels of a single vertex: maximal fork/join churn per source.
  graphs.push_back({"path_200", path(200)});
  // Dense biconnected component: no articulation points, heavy sigma
  // contention on the CAS-claimed forward phase.
  graphs.push_back({"complete_24", complete(24)});
  // Articulation-point stress shape plus pendant decorations.
  graphs.push_back({"barbell_pendants",
                    attach_pendants(barbell(12, 6), /*count=*/24, /*seed=*/99)});
  return graphs;
}

void expect_backend_matches_serial(const CsrGraph& g, Algorithm backend,
                                   int threads, const std::vector<double>& expected,
                                   const std::string& tag) {
  BcOptions opts;
  opts.algorithm = backend;
  opts.threads = threads;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::vector<double> actual = betweenness(g, opts).scores;
    const ScoreComparison cmp = compare_scores(expected, actual);
    EXPECT_TRUE(cmp.ok) << tag << " algorithm " << algorithm_name(backend)
                        << " threads " << threads << " rep " << rep
                        << ": worst vertex " << cmp.worst_vertex << " expected "
                        << cmp.expected_score << " got " << cmp.actual_score;
    if (!cmp.ok) return;  // one blamed failure per configuration is enough
  }
}

TEST(ParallelStressTest, BackendsMatchSerialOnAdversarialGraphs) {
  for (const AdversarialGraph& ag : adversarial_graphs()) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(ag.graph, serial).scores;
    for (Algorithm backend : parallel_backends()) {
      for (int threads : thread_counts()) {
        expect_backend_matches_serial(ag.graph, backend, threads, expected,
                                      ag.name);
      }
    }
  }
}

// The sweep the TSan CI job leans on: every parallel backend over the tiny
// check corpus with forced concurrency (4+ threads even on small hosts).
TEST(ParallelStressTest, BackendsMatchSerialOnCheckCorpus) {
  const int threads = wide_threads();
  for (const CorpusCase& c : graph_corpus(/*seed=*/5, /*tiny=*/true)) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(c.graph, serial).scores;
    for (Algorithm backend : parallel_backends()) {
      expect_backend_matches_serial(c.graph, backend, threads, expected, c.name);
    }
  }
}

// APGRE's two-level parallelism (scheduler tasks + nested fine-grained
// parallel_for levels) rides along.
TEST(ParallelStressTest, ApgreMatchesSerialUnderForcedConcurrency) {
  for (const AdversarialGraph& ag : adversarial_graphs()) {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected = betweenness(ag.graph, serial).scores;
    for (int threads : thread_counts()) {
      expect_backend_matches_serial(ag.graph, Algorithm::kApgre, threads,
                                    expected, ag.name);
    }
  }
}

// Work-stealing scheduler stress: a skewed decomposition (one dominant
// biconnected core plus many tiny satellite blocks, chains and pendants)
// scored through the two-level scheduler under every combination of
// worker count, grain and steal policy. TSan sees the Chase-Lev deque,
// the per-worker buffer merge and the spawn path under real contention.
TEST(ParallelStressTest, SchedulerMatchesSerialOnSkewedDecomposition) {
  CsrGraph g = barabasi_albert(300, 4, 41);
  g = attach_communities(g, 60, 6, 42);
  g = attach_chains(g, 30, 3, 43);
  g = attach_pendants(g, 200, 44);

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const std::vector<double> expected = betweenness(g, serial).scores;

  for (int threads : thread_counts()) {
    for (int grain : {0, 1, 8}) {
      for (StealPolicy policy :
           {StealPolicy::kRandom, StealPolicy::kSequential}) {
        BcOptions opts;
        opts.algorithm = Algorithm::kApgre;
        opts.threads = threads;
        opts.scheduler.grain = grain;
        opts.scheduler.steal_policy = policy;
        const std::string tag = "skewed grain " + std::to_string(grain) +
                                " policy " + steal_policy_name(policy);
        for (int rep = 0; rep < kRepetitions; ++rep) {
          const BcResult r = betweenness(g, opts);
          ASSERT_TRUE(r.status.ok()) << tag;
          const ScoreComparison cmp = compare_scores(expected, r.scores);
          EXPECT_TRUE(cmp.ok)
              << tag << " threads " << threads << " rep " << rep
              << ": worst vertex " << cmp.worst_vertex << " expected "
              << cmp.expected_score << " got " << cmp.actual_score;
          if (!cmp.ok) return;
        }
      }
    }
  }
}

// Every parallel kernel at once: N caller threads each run preds, succs,
// lockfree, hybrid, coarse, weighted APGRE and directed APGRE (its reach
// counts take the BFS pass) on one pinned 4-worker pool, starting at
// different kernels so every pair overlaps, each result checked against
// its serial oracle. The kernels share the pool's deques and slots but no
// other state.
TEST(ParallelStressTest, ConcurrentCallersRunEveryKernelAtOnce) {
  constexpr int kCallers = 4;
  constexpr int kThreads = 4;
  CsrGraph g;
  for (CorpusCase& c : graph_corpus(/*seed=*/7, /*tiny=*/false)) {
    if (c.name == "satellites_directed") g = std::move(c.graph);
  }
  ASSERT_TRUE(g.directed());
  const WeightedCsrGraph wg = with_random_weights(g, 1, 5, 7);

  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const std::vector<double> expected = betweenness(g, serial).scores;
  const std::vector<double> weighted_expected = weighted_brandes_bc(wg);

  struct Kernel {
    std::string name;
    std::function<std::vector<double>()> run;
    const std::vector<double>* expected;
  };
  std::vector<Kernel> kernels;
  for (Algorithm a : {Algorithm::kParallelPreds, Algorithm::kParallelSuccs,
                      Algorithm::kLockFree, Algorithm::kHybrid,
                      Algorithm::kCoarse, Algorithm::kApgre}) {
    kernels.push_back({algorithm_name(a),
                       [&g, a] {
                         BcOptions opts;
                         opts.algorithm = a;
                         opts.threads = kThreads;
                         return betweenness(g, opts).scores;
                       },
                       &expected});
  }
  kernels.push_back({"weighted_apgre",
                     [&wg] { return weighted_apgre_bc(wg, {}, nullptr, kThreads); },
                     &weighted_expected});

  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < kRepetitions; ++rep) {
        for (std::size_t k = 0; k < kernels.size(); ++k) {
          const Kernel& kernel =
              kernels[(k + static_cast<std::size_t>(c)) % kernels.size()];
          const ScoreComparison cmp =
              compare_scores(*kernel.expected, kernel.run());
          if (!cmp.ok) {
            std::lock_guard<std::mutex> lk(mu);
            failures.push_back(kernel.name + " caller " + std::to_string(c) +
                               " rep " + std::to_string(rep) + ": worst vertex " +
                               std::to_string(cmp.worst_vertex));
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " divergent runs, first: "
                                << (failures.empty() ? "" : failures.front());
}

}  // namespace
}  // namespace apgre
