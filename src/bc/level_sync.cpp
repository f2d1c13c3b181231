// The level-synchronous baselines of the paper's Tables 2/3 — preds, succs,
// lockfree and hybrid — as thin variants over LevelSyncBfs (frontier.hpp).
// All four share the forward phase; they differ in its direction policy and
// in how the backward sweep accumulates dependencies:
//
//   preds     top-down,  scatter to recorded predecessors (atomic deltas)
//   succs     top-down,  successor pull (one writer per delta cell)
//   lockfree  bottom-up, successor pull
//   hybrid    Beamer,    successor pull
#include <atomic>
#include <cstdint>
#include <string>

#include "bc/frontier.hpp"
#include "bc/hybrid.hpp"
#include "bc/lockfree.hpp"
#include "bc/parallel_preds.hpp"
#include "bc/parallel_succs.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"

namespace apgre {

namespace {

/// Per-run tallies flushed into `bc.<name>.*` once the run finishes.
struct Tally {
  std::uint64_t traversed_arcs = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  void flush(const std::string& name, Vertex sources, const LevelSyncBfs& bfs) const {
    MetricsRegistry& m = metrics();
    const std::string prefix = "bc." + name + ".";
    m.counter(prefix + "sources").add(sources);
    m.counter(prefix + "traversed_arcs").add(traversed_arcs);
    if (bfs.cas_retries() != 0) {
      m.counter(prefix + "cas_retries").add(bfs.cas_retries());
    }
    if (bfs.bottom_up_levels() != 0) {
      m.counter(prefix + "bottom_up_levels").add(bfs.bottom_up_levels());
    }
    m.gauge(prefix + "forward_seconds").set(forward_seconds);
    m.gauge(prefix + "backward_seconds").set(backward_seconds);
  }
};

/// succs / lockfree / hybrid: each vertex pulls its dependency from its
/// successors, so delta[v] has a single writer and needs no atomics.
std::vector<double> successor_pull_bc(const CsrGraph& g, FrontierDirection dir,
                                      const std::string& name, int threads) {
  const Vertex n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  std::vector<double> delta(n, 0.0);
  const auto pool = WorkStealingScheduler::pool_for(threads);
  LevelSyncBfs bfs(n, *pool);
  Tally tally;
  Timer phase_timer;
  for (Vertex s = 0; s < n; ++s) {
    phase_timer.reset();
    bfs.forward(g, s, dir);
    tally.forward_seconds += phase_timer.seconds();

    phase_timer.reset();
    for (std::size_t lvl = bfs.levels().num_levels(); lvl-- > 0;) {
      bfs.for_each_in_level(lvl, [&](Vertex v, int) {
        const std::int32_t dv = bfs.dist(v);
        const double sv = bfs.sigma(v);
        double acc = 0.0;
        for (Vertex w : g.out_neighbors(v)) {
          if (bfs.dist(w) == dv + 1) acc += sv / bfs.sigma(w) * (1.0 + delta[w]);
        }
        delta[v] = acc;
        if (v != s) bc[v] += acc;
      });
    }
    tally.backward_seconds += phase_timer.seconds();

    for (Vertex v : bfs.levels().touched()) delta[v] = 0.0;
    tally.traversed_arcs += bfs.reset(g);
  }
  tally.flush(name, n, bfs);
  return bc;
}

}  // namespace

std::vector<double> parallel_preds_bc(const CsrGraph& g, int threads) {
  const Vertex n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  // Predecessor lists live in slots parallel to the in-adjacency array: the
  // predecessors of w are a prefix of its in-neighbour range, claimed with
  // an atomic cursor.
  std::vector<Vertex> pred_slots(g.num_arcs());
  std::vector<std::atomic<std::uint32_t>> pred_count(n);
  std::vector<std::atomic<double>> delta(n);
  for (Vertex v = 0; v < n; ++v) {
    pred_count[v].store(0, std::memory_order_relaxed);
    delta[v].store(0.0, std::memory_order_relaxed);
  }
  const auto pool = WorkStealingScheduler::pool_for(threads);
  LevelSyncBfs bfs(n, *pool);
  Tally tally;
  Timer phase_timer;
  for (Vertex s = 0; s < n; ++s) {
    phase_timer.reset();
    bfs.forward(g, s, {FrontierDirection::kTopDown}, [&](Vertex v, Vertex w) {
      const std::uint32_t k = pred_count[w].fetch_add(1, std::memory_order_relaxed);
      pred_slots[g.in_offset(w) + k] = v;
    });
    tally.forward_seconds += phase_timer.seconds();

    // Scatter each vertex's dependency to its predecessors. Several
    // successors update one predecessor concurrently -> atomic adds (the
    // contention `succs` eliminates).
    phase_timer.reset();
    for (std::size_t lvl = bfs.levels().num_levels(); lvl-- > 1;) {
      bfs.for_each_in_level(lvl, [&](Vertex w, int) {
        const double dw = delta[w].load(std::memory_order_relaxed);
        const double coef = (1.0 + dw) / bfs.sigma(w);
        const std::uint32_t count = pred_count[w].load(std::memory_order_relaxed);
        for (std::uint32_t p = 0; p < count; ++p) {
          const Vertex v = pred_slots[g.in_offset(w) + p];
          delta[v].fetch_add(bfs.sigma(v) * coef, std::memory_order_relaxed);
        }
        bc[w] += dw;
      });
    }
    tally.backward_seconds += phase_timer.seconds();

    for (Vertex v : bfs.levels().touched()) {
      pred_count[v].store(0, std::memory_order_relaxed);
      delta[v].store(0.0, std::memory_order_relaxed);
    }
    tally.traversed_arcs += bfs.reset(g);
  }
  tally.flush("preds", n, bfs);
  return bc;
}

std::vector<double> parallel_succs_bc(const CsrGraph& g, int threads) {
  return successor_pull_bc(g, {FrontierDirection::kTopDown}, "succs", threads);
}

std::vector<double> lockfree_bc(const CsrGraph& g, int threads) {
  return successor_pull_bc(g, {FrontierDirection::kBottomUp}, "lockfree",
                           threads);
}

std::vector<double> hybrid_bc(const CsrGraph& g, const HybridOptions& opts,
                              int threads) {
  return successor_pull_bc(g, {FrontierDirection::kBeamer, opts}, "hybrid",
                           threads);
}

}  // namespace apgre
