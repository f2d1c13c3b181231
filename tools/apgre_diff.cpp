// apgre_diff — differential / metamorphic / invariant sweep driver.
//
//   apgre_diff --seed 1..20 --algo-set exact
//   apgre_diff --seed 7 --cases pendants --verbose
//   apgre_diff --seed 1..5 --large --algo-set apgre,serial,lockfree
//
// For every seed in the range and every corpus case (check/corpus.hpp) the
// tool diffs the selected algorithms against serial Brandes with per-vertex
// blame, runs the metamorphic rules (rotating the algorithm under test
// through the set), diffs the 2-core-peeled solve and a peeled incremental
// trajectory against the unpeeled reference (--peel), validates the
// decomposition + ApgreStats invariants, and sweeps the biconnectivity-pass
// agreement check across the serial and parallel passes (--parallel-bcc).
// Exit status 0 means zero
// divergence above tolerance; 1 means
// at least one check failed (details on stderr); 2 is a usage error.
// CI and fuzzing drive this binary; a failing (seed, case) pair is
// reproducible by rerunning with the same flags (see docs/TESTING.md).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bc/bc.hpp"
#include "check/corpus.hpp"
#include "check/invariants.hpp"
#include "check/metamorphic.hpp"
#include "check/oracle.hpp"
#include "support/flags.hpp"
#include "support/timer.hpp"

namespace {

using namespace apgre;

/// "--seed 7" or "--seed 1..20" (inclusive range).
std::pair<std::uint64_t, std::uint64_t> parse_seed_range(const std::string& spec) {
  const auto dots = spec.find("..");
  try {
    if (dots == std::string::npos) {
      const std::uint64_t seed = std::stoull(spec);
      return {seed, seed};
    }
    const std::uint64_t first = std::stoull(spec.substr(0, dots));
    const std::uint64_t last = std::stoull(spec.substr(dots + 2));
    APGRE_REQUIRE(first <= last, "--seed range must be ascending");
    return {first, last};
  } catch (const std::invalid_argument&) {
    throw OptionError("--seed expects N or A..B, got `" + spec + "`");
  } catch (const std::out_of_range&) {
    throw OptionError("--seed value out of range: `" + spec + "`");
  }
}

std::vector<Algorithm> parse_algo_set(const std::string& spec) {
  if (spec == "exact") return {};  // oracle default: exact_algorithm_set(g)
  std::vector<Algorithm> set;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string name =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) set.push_back(algorithm_from_name(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  APGRE_REQUIRE(!set.empty(), "--algo-set selected no algorithms");
  return set;
}

struct SweepCounters {
  std::size_t graphs = 0;
  std::size_t differential_runs = 0;
  std::size_t metamorphic_checks = 0;
  std::size_t invariant_graphs = 0;
  std::size_t weighted_graphs = 0;
  std::size_t peel_graphs = 0;
  std::size_t agreement_graphs = 0;
  std::size_t trajectory_steps = 0;
  std::size_t failures = 0;
  double worst_divergence = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "apgre_diff: cross-algorithm differential + metamorphic + invariant "
      "sweep over the seeded graph corpus.\n"
      "usage: apgre_diff [flags]");
  flags.add_string("seed", "1", "seed or inclusive range A..B")
      .add_string("algo-set", "exact",
                  "`exact` (every exact algorithm, naive when small) or a "
                  "comma list of names")
      .add_string("cases", "", "only corpus cases whose name contains this")
      .add_bool("large", false, "use the large corpus (naive auto-skipped)")
      .add_bool("metamorphic", true, "run the metamorphic rules")
      .add_bool("invariants", true, "check decomposition + ApgreStats invariants")
      .add_bool("weighted", true, "also diff the weighted algorithm family")
      .add_bool("peel", true,
                "diff the 2-core-peeled solve (and a peeled incremental "
                "trajectory) against the unpeeled reference")
      .add_string("parallel-bcc", "both",
                  "decomposition_agreement axis: `on` (parallel pass), "
                  "`off` (serial DFS), `both`, or `none`")
      .add_double("rel", 1e-7, "relative score tolerance")
      .add_double("abs", 1e-6, "absolute score tolerance")
      .add_int("max-naive", 256, "largest |V| the O(V^3) naive oracle runs on")
      .add_int("threads", 0, "solve width (0 = the shared pool)")
      .add_bool("verbose", false, "print every case, not only failures");

  std::pair<std::uint64_t, std::uint64_t> seeds;
  OracleOptions oracle;
  bool large = false;
  bool agreement_on = false;
  bool agreement_off = false;
  try {
    const auto positional = flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fprintf(stderr, "%s", flags.help().c_str());
      return 0;
    }
    APGRE_REQUIRE(positional.empty(), "apgre_diff takes no positional arguments");
    seeds = parse_seed_range(flags.get_string("seed"));
    oracle.algorithms = parse_algo_set(flags.get_string("algo-set"));
    oracle.rel_tolerance = flags.get_double("rel");
    oracle.abs_tolerance = flags.get_double("abs");
    oracle.max_naive_vertices = static_cast<Vertex>(flags.get_int("max-naive"));
    oracle.threads = static_cast<int>(flags.get_int("threads"));
    large = flags.get_bool("large");
    const std::string axis = flags.get_string("parallel-bcc");
    APGRE_REQUIRE(axis == "on" || axis == "off" || axis == "both" ||
                      axis == "none",
                  "--parallel-bcc expects on, off, both, or none");
    agreement_on = axis == "on" || axis == "both";
    agreement_off = axis == "off" || axis == "both";
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.help().c_str());
    return 2;
  }

  const std::string case_filter = flags.get_string("cases");
  const bool verbose = flags.get_bool("verbose");
  SweepCounters counters;
  Timer timer;

  for (std::uint64_t seed = seeds.first; seed <= seeds.second; ++seed) {
    for (const CorpusCase& c : graph_corpus(seed, /*tiny=*/!large)) {
      if (c.name.find(case_filter) == std::string::npos) continue;
      ++counters.graphs;
      const std::string tag = "seed " + std::to_string(seed) + " " + c.name;

      // --- Differential oracle ------------------------------------------
      const OracleReport report = differential_check(c.graph, oracle);
      counters.differential_runs += report.algorithms.size();
      counters.worst_divergence =
          std::max(counters.worst_divergence, report.max_divergence);
      if (!report.ok) {
        ++counters.failures;
        std::fprintf(stderr, "FAIL [differential] %s\n%s", tag.c_str(),
                     report.summary().c_str());
      } else if (verbose) {
        std::printf("ok   [differential] %s: max divergence %.3g\n",
                    tag.c_str(), report.max_divergence);
      }

      // --- Metamorphic rules, rotating the algorithm under test ---------
      if (flags.get_bool("metamorphic")) {
        std::vector<Algorithm> pool = oracle.algorithms;
        if (pool.empty()) pool = exact_algorithm_set(c.graph, 0);  // no naive
        BcOptions under_test;
        under_test.algorithm = pool[counters.graphs % pool.size()];
        under_test.threads = oracle.threads;
        for (const MetamorphicResult& r :
             run_metamorphic_rules(c.graph, under_test, seed,
                                   oracle.rel_tolerance, oracle.abs_tolerance)) {
          if (!r.applied) continue;
          ++counters.metamorphic_checks;
          if (!r.ok) {
            ++counters.failures;
            std::fprintf(stderr, "FAIL [metamorphic:%s] %s (%s): %s\n",
                         r.rule.c_str(), tag.c_str(),
                         algorithm_name(under_test.algorithm).c_str(),
                         r.detail.c_str());
          } else if (verbose) {
            std::printf("ok   [metamorphic:%s] %s (%s)\n", r.rule.c_str(),
                        tag.c_str(),
                        algorithm_name(under_test.algorithm).c_str());
          }
        }
      }

      // --- Peel-on vs peel-off axis -------------------------------------
      // The metamorphic peel_solve rule rotates the reference algorithm; this
      // axis is the fixed-reference version (serial Brandes vs peeled APGRE)
      // plus a peeled *incremental* trajectory: after every random edge
      // mutation the tracked solver — including its structural fallbacks when
      // an update lands on the peeled forest — must match a from-scratch
      // static solve on the mutated graph.
      if (flags.get_bool("peel")) {
        ++counters.peel_graphs;
        BcOptions reference;
        reference.threads = oracle.threads;
        BcOptions peeled = reference;
        peeled.algorithm = Algorithm::kApgre;
        peeled.apgre.partition.peel_two_core = true;
        const ScoreComparison cmp = compare_scores(
            betweenness(c.graph, reference).scores,
            betweenness(c.graph, peeled).scores, oracle.rel_tolerance,
            oracle.abs_tolerance);
        counters.worst_divergence =
            std::max(counters.worst_divergence, cmp.max_divergence);
        if (!cmp.ok) {
          ++counters.failures;
          std::fprintf(stderr,
                       "FAIL [peel] %s: %zu vertices over tolerance; worst v%u "
                       "expected %g actual %g\n",
                       tag.c_str(), cmp.num_violations, cmp.worst_vertex,
                       cmp.expected_score, cmp.actual_score);
        } else if (verbose) {
          std::printf("ok   [peel] %s: max divergence %.3g\n", tag.c_str(),
                      cmp.max_divergence);
        }

        if (c.graph.num_vertices() >= 2 && c.graph.num_vertices() <= 2000) {
          const std::vector<DynamicStep> steps =
              random_dynamic_steps(c.graph, /*count=*/4, seed);
          const OracleReport trajectory =
              incremental_differential_check(c.graph, steps, peeled, oracle);
          counters.trajectory_steps += trajectory.algorithms.size();
          counters.worst_divergence =
              std::max(counters.worst_divergence, trajectory.max_divergence);
          if (!trajectory.ok) {
            ++counters.failures;
            std::fprintf(stderr, "FAIL [peel-trajectory] %s\n%s", tag.c_str(),
                         trajectory.summary().c_str());
          } else if (verbose) {
            std::printf("ok   [peel-trajectory] %s: %zu steps, max divergence "
                        "%.3g\n",
                        tag.c_str(), trajectory.algorithms.size(),
                        trajectory.max_divergence);
          }
        }
      }

      // --- Decomposition + stats invariants -----------------------------
      if (flags.get_bool("invariants")) {
        ++counters.invariant_graphs;
        const Decomposition dec = decompose(c.graph);
        std::vector<std::string> violations =
            check_decomposition_invariants(c.graph, dec, /*max_reach_checks=*/64);
        BcOptions apgre_run;
        apgre_run.algorithm = Algorithm::kApgre;
        apgre_run.threads = oracle.threads;
        const BcResult result = betweenness(c.graph, apgre_run);
        for (std::string& v :
             check_stats_invariants(c.graph, result.apgre_stats,
                                    apgre_run.apgre)) {
          violations.push_back(std::move(v));
        }
        if (!violations.empty()) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [invariants] %s:\n", tag.c_str());
          for (const std::string& v : violations) {
            std::fprintf(stderr, "  %s\n", v.c_str());
          }
        } else if (verbose) {
          std::printf("ok   [invariants] %s\n", tag.c_str());
        }
      }

      // --- Biconnectivity-pass agreement axis ---------------------------
      // Runs check_decomposition_agreement with the parallel pass forced on
      // and/or the serial DFS forced, per --parallel-bcc. The kOn leg also
      // cross-checks the canonicalized parallel output against the serial
      // reference (invariants.hpp point 4), so `both` diffs the two passes
      // on every corpus case.
      if (agreement_on || agreement_off) {
        ++counters.agreement_graphs;
        std::vector<std::string> violations;
        if (agreement_off) {
          for (std::string& v : check_decomposition_agreement(
                   c.graph, ParallelDecomposition::kOff)) {
            violations.push_back("serial: " + std::move(v));
          }
        }
        if (agreement_on) {
          for (std::string& v : check_decomposition_agreement(
                   c.graph, ParallelDecomposition::kOn)) {
            violations.push_back("parallel: " + std::move(v));
          }
        }
        if (!violations.empty()) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [parallel-bcc] %s:\n", tag.c_str());
          for (const std::string& v : violations) {
            std::fprintf(stderr, "  %s\n", v.c_str());
          }
        } else if (verbose) {
          std::printf("ok   [parallel-bcc] %s\n", tag.c_str());
        }
      }
    }

    // --- Weighted family ------------------------------------------------
    if (flags.get_bool("weighted")) {
      for (const WeightedCorpusCase& c : weighted_corpus(seed, !large)) {
        if (c.name.find(case_filter) == std::string::npos) continue;
        ++counters.weighted_graphs;
        const OracleReport report = weighted_differential_check(c.graph, oracle);
        counters.worst_divergence =
            std::max(counters.worst_divergence, report.max_divergence);
        if (!report.ok) {
          ++counters.failures;
          std::fprintf(stderr, "FAIL [weighted] seed %llu %s\n%s",
                       static_cast<unsigned long long>(seed), c.name.c_str(),
                       report.summary().c_str());
        } else if (verbose) {
          std::printf("ok   [weighted] seed %llu %s: max divergence %.3g\n",
                      static_cast<unsigned long long>(seed), c.name.c_str(),
                      report.max_divergence);
        }
      }
    }
  }

  if (counters.graphs == 0 && counters.weighted_graphs == 0) {
    // A typo'd --cases filter must not read as a clean sweep.
    std::fprintf(stderr, "error: no corpus case matches --cases `%s`\n",
                 case_filter.c_str());
    return 2;
  }
  std::printf(
      "apgre_diff: seeds %llu..%llu, %zu graphs (%zu weighted), "
      "%zu differential runs, %zu metamorphic checks, %zu invariant graphs, "
      "%zu peel graphs (%zu trajectory steps), %zu agreement graphs; "
      "worst divergence %.3g; %zu failures in %.2f s\n",
      static_cast<unsigned long long>(seeds.first),
      static_cast<unsigned long long>(seeds.second), counters.graphs,
      counters.weighted_graphs, counters.differential_runs,
      counters.metamorphic_checks, counters.invariant_graphs,
      counters.peel_graphs, counters.trajectory_steps,
      counters.agreement_graphs, counters.worst_divergence, counters.failures,
      timer.seconds());
  return counters.failures == 0 ? 0 : 1;
}
