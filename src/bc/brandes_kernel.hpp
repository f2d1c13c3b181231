// Internal: the per-source Brandes iteration shared by the serial baseline,
// the coarse source-parallel algorithm and the sampling estimator. Each
// caller owns a BrandesScratch (and, when parallel, a private bc buffer).
#pragma once

#include <cstdint>
#include <vector>

#include "bc/frontier.hpp"
#include "graph/csr.hpp"
#include "support/timer.hpp"

namespace apgre::detail {

inline constexpr std::int32_t kUnvisited = -1;

/// Per-source working set, reset in O(touched) between sources.
struct BrandesScratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  LevelBuckets levels;

  // Observability tallies accumulated across sources; the driving algorithm
  // flushes them into the metrics registry once per run (the scratch is
  // per-slot, so tallying here stays contention-free).
  std::uint64_t sources = 0;
  std::uint64_t traversed_arcs = 0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;

  explicit BrandesScratch(Vertex n)
      : dist(n, kUnvisited), sigma(n, 0.0), delta(n, 0.0) {}

  void reset_touched() {
    for (Vertex v : levels.touched()) {
      dist[v] = kUnvisited;
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
    levels.clear();
  }
};

/// One complete Brandes iteration from `s`: forward BFS building distance
/// labels / path counts / level buckets, then a successor-scan backward
/// sweep adding `weight * delta_s(v)` into `bc`.
inline void brandes_iteration(const CsrGraph& g, Vertex s, double weight,
                              BrandesScratch& scratch, std::vector<double>& bc) {
  auto& dist = scratch.dist;
  auto& sigma = scratch.sigma;
  auto& delta = scratch.delta;
  auto& levels = scratch.levels;

  dist[s] = 0;
  sigma[s] = 1.0;
  levels.push(s);
  levels.finish_level();
  Timer phase_timer;
  for (std::size_t current = 0; !levels.level(current).empty(); ++current) {
    // Index-based scan: push() grows the underlying array, so spans into
    // the current level would dangle.
    const auto [begin, end] = levels.level_range(current);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const Vertex v = levels.vertex(idx);
      for (Vertex w : g.out_neighbors(v)) {
        if (dist[w] == kUnvisited) {
          dist[w] = dist[v] + 1;
          levels.push(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    levels.finish_level();
    if (levels.level(current + 1).empty()) break;
  }
  scratch.forward_seconds += phase_timer.seconds();

  phase_timer.reset();
  for (std::size_t lvl = levels.num_levels(); lvl-- > 0;) {
    for (Vertex v : levels.level(lvl)) {
      double acc = 0.0;
      for (Vertex w : g.out_neighbors(v)) {
        if (dist[w] == dist[v] + 1) acc += sigma[v] / sigma[w] * (1.0 + delta[w]);
      }
      delta[v] = acc;
      if (v != s) bc[v] += weight * acc;
    }
  }
  scratch.backward_seconds += phase_timer.seconds();

  ++scratch.sources;
  for (Vertex v : levels.touched()) scratch.traversed_arcs += g.out_degree(v);
  scratch.reset_touched();
}

}  // namespace apgre::detail
