// Shared declarations of the repository benchmark (perfbench/README.md).
//
// The benchmark drives the library only through its public headers, checks
// every output it times for exactness, and reports end-to-end metrics
// (untraced build) or per-layer metrics (traced build) as one JSON line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/update.hpp"

namespace perfbench {

using apgre::CsrGraph;
using apgre::Vertex;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny graphs and short phases: the smoke check, not a measurement.
  bool smoke = false;
  /// Corrupt one checked score vector so the exactness gate must trip.
  bool perturb = false;
  /// Chrome trace-event output of a traced run ("" = none).
  std::string trace_out;
  std::string revision = "unknown";
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation tally of a run: every request and every exactness check
/// counts as attempted; failures keep their first few messages.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void pass() { ++attempted; }
  void fail(std::string message);
  void merge(const Outcome& other);
};

struct Report {
  Outcome outcome;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit);
};

/// Sorted-copy percentile (linear interpolation); 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Solve latency in host-probe units: `stat` of each window of consecutive
/// solves over the window's median probe pass, as the median over
/// `windows` windows (perfbench/README.md).
template <class Stat>
double normalized(const std::vector<double>& solve,
                  const std::vector<double>& probe, std::size_t windows,
                  Stat stat) {
  const std::size_t n = std::min(solve.size(), probe.size());
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(n * w / windows);
    const auto hi = static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    if (lo == hi) continue;
    per_window.push_back(stat(std::vector<double>(solve.begin() + lo, solve.begin() + hi)) /
                         median({probe.begin() + lo, probe.begin() + hi}));
  }
  return median(per_window);
}

/// Thread budget of a default-option solve: the worker count of the shared
/// scheduler. The coarse baseline and the service get the same budget.
int thread_budget();

/// Peak resident set (VmHWM) of this process image so far, in MiB; NaN
/// when /proc/self/status is unreadable.
double peak_rss_mb();

/// Serial Brandes on `g` (the oracle), ordered-pair convention.
std::vector<double> serial_oracle(const CsrGraph& g);

/// Compare at the oracle tolerance 1e-6 + 1e-7 * max(|a|, |b|); on a
/// mismatch returns false and describes the first bad vertex in `why`.
bool scores_match(const std::vector<double>& expected,
                  const std::vector<double>& actual, std::string* why);

/// Check `actual` against `expected` into `outcome`; with `perturb` the
/// vector is corrupted first (once per run) so the gate must trip.
void check_scores(const std::vector<double>& expected,
                  std::vector<double> actual, const std::string& what,
                  bool& perturb, Outcome& outcome);

/// Host-speed probe (probe.cpp): serial Brandes from fixed sources on a
/// fixed grid, built on the benchmark's own arrays. run() returns the
/// seconds of one pass.
class HostProbe {
 public:
  HostProbe();
  double run();

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::int32_t> dist_;
  std::vector<double> sigma_;
  std::vector<double> delta_;
  std::vector<std::uint32_t> order_;
  volatile double sink_ = 0.0;
};

// ---- Workload inputs (graphs.cpp) ----------------------------------------

/// Generator parameters of one workload graph, recorded in the host line.
struct GraphSpec {
  std::string name;
  std::string params;
  CsrGraph graph;
};

GraphSpec road_graph(std::uint64_t seed, bool smoke);
GraphSpec fringe_graph(std::uint64_t seed, bool smoke);

/// One edge owned by one client, with its current presence. Owners are
/// the only writers of their edges, so toggling stays legal under any
/// interleaving of clients.
struct OwnedEdge {
  Vertex u = apgre::kInvalidVertex;
  Vertex v = apgre::kInvalidVertex;
  bool present = false;

  apgre::EdgeOp toggle_op() const;
};

/// Disjoint per-client edge pools on one graph:
///   core_chords — both endpoints non-articulation members of the largest
///                 block; chords — the same in the other blocks of at least
///                 five members. Absent pairs of sparse blocks toggle
///                 insert-first, a matching of complete blocks toggles
///                 delete-first, so every toggle keeps the block-cut tree
///                 (a local batch);
///   structural  — existing pendant edges (delete first) and absent pairs
///                 a few hops apart across two blocks (insert first): each
///                 toggle reshapes the block-cut tree.
struct ClientPool {
  std::vector<OwnedEdge> core_chords;
  std::vector<OwnedEdge> chords;
  std::vector<OwnedEdge> structural;
};

std::vector<ClientPool> make_pools(const CsrGraph& g, int clients,
                                   std::size_t chords_per_client,
                                   std::size_t structural_per_client,
                                   std::uint64_t seed);

// ---- Measured loops (loops.cpp) ------------------------------------------

/// Figures of one loop, before they become metrics.
struct LoopResult {
  Outcome outcome;
  // Solve loop: latency of every cold solve, and of the host probe pass
  // run just before it.
  std::vector<double> solve;
  std::vector<double> probe;
  // Service loop: client latency of every update_batch request, read
  // latency minus scoring time, and ServiceStats ratios.
  std::vector<double> update;
  std::vector<double> service_overhead;
  double hit_rate = 0.0;
  double local_recompute_frac = 0.0;
  double batch_downgrade_frac = 0.0;
};

/// solve-road / solve-fringe: repeated cold solves of `g` with default
/// options, each checked against `oracle` (g's serial Brandes scores) and
/// each preceded by one host probe pass.
/// `between`, when set, runs after every iteration with the loop's elapsed
/// seconds; its time is not measured as solve time.
LoopResult run_solve_loop(const CsrGraph& g, const std::vector<double>& oracle,
                          double seconds, bool& perturb,
                          const std::function<void(double)>& between = {});

/// Mixed read/write service loop (traced runs): two closed-loop clients
/// against one Service holding `g`; checks every status, the final edge set
/// and the final snapshot's scores against `oracle` (g's serial Brandes
/// scores).
LoopResult run_service_loop(const CsrGraph& g, const std::vector<double>& oracle,
                            double seconds, std::uint64_t seed, bool& perturb);

/// The workload's graph.
GraphSpec workload_graph(const Args& args);

/// Seconds of one cold set-up: generate the workload graph and solve it
/// once; negative when the solve failed.
double setup_seconds(const Args& args);

// ---- Traced per-layer run (layers.cpp) -----------------------------------

/// The traced run: the workload's loop with spans, per-layer probes on the
/// probe graph, the reference baselines, and the Chrome trace export.
void add_layer_metrics(const Args& args, const CsrGraph& g, bool& perturb,
                       Report& report);

}  // namespace perfbench
