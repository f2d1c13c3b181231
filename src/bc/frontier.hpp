// Level-synchronous frontier structures for the BFS phases.
//
// LevelBuckets records the vertices of every BFS level contiguously so the
// backward dependency sweep can walk levels in reverse (paper Algorithm 2,
// `Levels[]`). SlotLocalFrontier is the stand-in for the paper's CilkPlus
// reducer bag: scheduler slots append to private buffers which are
// concatenated into the next level at the barrier. LevelSyncBfs is the
// forward phase every level-synchronous kernel shares (preds, succs,
// lockfree, hybrid and APGRE's fine-grained sub-graph kernel): one
// WorkStealingScheduler::parallel_for per BFS level.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bc/hybrid.hpp"
#include "graph/csr.hpp"
#include "support/error.hpp"
#include "support/sched/scheduler.hpp"

namespace apgre {

/// Vertices grouped by BFS level, stored back to back.
class LevelBuckets {
 public:
  void clear() {
    vertices_.clear();
    offsets_.assign(1, 0);
  }

  /// Close the current level and start the next one.
  void finish_level() { offsets_.push_back(vertices_.size()); }

  void push(Vertex v) { vertices_.push_back(v); }

  /// Append a whole batch (used when merging thread-local buffers).
  void push_batch(const std::vector<Vertex>& batch) {
    vertices_.insert(vertices_.end(), batch.begin(), batch.end());
  }

  /// Number of *closed* levels.
  std::size_t num_levels() const { return offsets_.size() - 1; }

  /// Vertices of closed level `i`. NOTE: the returned span is invalidated
  /// by push()/push_batch(); loops that grow the frontier while scanning a
  /// level must use level_range() + vertex() instead.
  std::span<const Vertex> level(std::size_t i) const {
    APGRE_ASSERT(i + 1 < offsets_.size());
    return {vertices_.data() + offsets_[i], vertices_.data() + offsets_[i + 1]};
  }

  /// [begin, end) index range of closed level `i`, stable across push().
  std::pair<std::size_t, std::size_t> level_range(std::size_t i) const {
    APGRE_ASSERT(i + 1 < offsets_.size());
    return {offsets_[i], offsets_[i + 1]};
  }

  /// Vertex at flat index `idx`; safe to call while pushing.
  Vertex vertex(std::size_t idx) const {
    APGRE_ASSERT(idx < vertices_.size());
    return vertices_[idx];
  }

  std::size_t current_level_size() const {
    return vertices_.size() - offsets_.back();
  }

  /// Every vertex touched by the BFS, in discovery-level order. Used to
  /// reset per-source state in O(touched) instead of O(|V|).
  const std::vector<Vertex>& touched() const { return vertices_; }

  bool empty() const { return vertices_.empty(); }

 private:
  std::vector<Vertex> vertices_;
  std::vector<std::size_t> offsets_{0};
};

/// Per-slot append buffers, indexed by the scheduler slot id a
/// parallel_for body receives and sized by
/// WorkStealingScheduler::num_slots(). Buffers start empty and grow only on
/// slots that actually execute chunks, so oversizing is free.
class SlotLocalFrontier {
 public:
  explicit SlotLocalFrontier(int slots)
      : buffers_(static_cast<std::size_t>(slots)) {}

  std::vector<Vertex>& local(int slot) {
    return buffers_[static_cast<std::size_t>(slot)].items;
  }

  /// Merge every slot's buffer; call only between parallel_for calls.
  void drain_into(LevelBuckets& levels) {
    for (auto& buffer : buffers_) {
      levels.push_batch(buffer.items);
      buffer.items.clear();
    }
  }

  void drain_into(std::vector<Vertex>& out) {
    for (auto& buffer : buffers_) {
      out.insert(out.end(), buffer.items.begin(), buffer.items.end());
      buffer.items.clear();
    }
  }

 private:
  struct alignas(64) Buffer {
    std::vector<Vertex> items;
  };
  std::vector<Buffer> buffers_;
};

/// How LevelSyncBfs::forward expands each level.
struct FrontierDirection {
  enum Mode {
    kTopDown,   ///< frontier vertices push to out-neighbours, claiming by CAS
    kBottomUp,  ///< unvisited vertices pull from in-neighbours (one writer per cell)
    kBeamer,    ///< per level, Beamer's direction-optimising choice of the two
  };
  Mode mode = kTopDown;
  /// kBeamer pulls when the frontier's out-arcs exceed unexplored arcs /
  /// alpha and the frontier holds more than |V| / beta vertices.
  HybridOptions beamer = {};
};

/// Forward phase of one level-synchronous Brandes source: distances and
/// shortest-path counts in relaxed atomics, one closed LevelBuckets level
/// per depth, each level expanded by one parallel_for on the scheduler.
/// Within a level, claims race on dist and path counts accumulate
/// concurrently; the parallel_for join orders consecutive levels, so the
/// backward sweep (for_each_in_level) reads settled values. Reused across
/// sources: reset() clears only the vertices the last source touched.
class LevelSyncBfs {
 public:
  static constexpr std::int32_t kUnvisited = -1;

  LevelSyncBfs(Vertex n, WorkStealingScheduler& sched)
      : dist_(n), sigma_(n), next_(sched.num_slots()),
        remaining_(sched.num_slots()), sched_(&sched) {
    for (Vertex v = 0; v < n; ++v) {
      dist_[v].store(kUnvisited, std::memory_order_relaxed);
      sigma_[v].store(0.0, std::memory_order_relaxed);
    }
  }

  /// BFS from `s` over `g`. `on_arc(u, w)` runs, concurrently from any
  /// slot, for every shortest-path DAG arc u->w as it is found.
  template <typename OnArc>
  void forward(const CsrGraph& g, Vertex s, FrontierDirection dir,
               OnArc&& on_arc) {
    dist_[s].store(0, std::memory_order_relaxed);
    sigma_[s].store(1.0, std::memory_order_relaxed);
    levels_.push(s);
    levels_.finish_level();
    const auto total_arcs = static_cast<double>(g.num_arcs());
    auto frontier_arcs = static_cast<double>(g.out_degree(s));
    double explored_arcs = 0.0;
    bool candidates_valid = false;
    for (std::size_t current = 0;; ++current) {
      const auto depth = static_cast<std::int32_t>(current);
      const std::size_t frontier = levels_.level(current).size();
      explored_arcs += frontier_arcs;
      const bool bottom_up =
          dir.mode == FrontierDirection::kBottomUp ||
          (dir.mode == FrontierDirection::kBeamer &&
           frontier_arcs >
               (total_arcs - explored_arcs) / dir.beamer.alpha &&
           static_cast<double>(frontier) >
               static_cast<double>(g.num_vertices()) / dir.beamer.beta);
      if (bottom_up) {
        if (!candidates_valid) {
          candidates_.clear();
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            if (dist(v) == kUnvisited) candidates_.push_back(v);
          }
          candidates_valid = true;
        }
        pull_level(g, depth, on_arc);
        ++bottom_up_levels_;
      } else {
        push_level(g, current, depth, on_arc);
        candidates_valid = false;  // the unvisited list is now stale
      }
      levels_.finish_level();
      const std::span<const Vertex> fresh = levels_.level(current + 1);
      if (fresh.empty()) break;
      if (dir.mode == FrontierDirection::kBeamer) {
        frontier_arcs = 0.0;
        for (Vertex v : fresh) frontier_arcs += static_cast<double>(g.out_degree(v));
      }
    }
  }

  void forward(const CsrGraph& g, Vertex s, FrontierDirection dir) {
    forward(g, s, dir, [](Vertex, Vertex) {});
  }

  /// `body(v, slot)` for every vertex of closed level `lvl`, spread over
  /// the pool; returns when the whole level is done.
  template <typename Body>
  void for_each_in_level(std::size_t lvl, Body&& body) {
    const std::span<const Vertex> level = levels_.level(lvl);
    sched_->parallel_for(0, static_cast<std::int64_t>(level.size()),
                         grain(level.size()),
                         [&](std::int64_t lo, std::int64_t hi, int slot) {
                           for (std::int64_t i = lo; i < hi; ++i) {
                             body(level[static_cast<std::size_t>(i)], slot);
                           }
                         });
  }

  /// Clear the vertices the last source touched; returns their out-arc
  /// count (the source's traversal volume).
  std::uint64_t reset(const CsrGraph& g) {
    std::uint64_t arcs = 0;
    for (Vertex v : levels_.touched()) {
      arcs += g.out_degree(v);
      dist_[v].store(kUnvisited, std::memory_order_relaxed);
      sigma_[v].store(0.0, std::memory_order_relaxed);
    }
    levels_.clear();
    return arcs;
  }

  std::int32_t dist(Vertex v) const {
    return dist_[v].load(std::memory_order_relaxed);
  }
  double sigma(Vertex v) const {
    return sigma_[v].load(std::memory_order_relaxed);
  }
  const LevelBuckets& levels() const { return levels_; }
  /// Top-down claims lost to another slot (contention tally).
  std::uint64_t cas_retries() const {
    return cas_retries_.load(std::memory_order_relaxed);
  }
  std::uint64_t bottom_up_levels() const { return bottom_up_levels_; }

 private:
  /// Chunk size for a level of `n` vertices: big enough to amortize the
  /// claim fetch_add, small enough to split a fat frontier across the pool.
  std::int64_t grain(std::size_t n) const {
    return std::max<std::int64_t>(
        64, static_cast<std::int64_t>(n) /
                (8 * static_cast<std::int64_t>(sched_->num_workers())));
  }

  template <typename OnArc>
  void push_level(const CsrGraph& g, std::size_t current, std::int32_t depth,
                  OnArc& on_arc) {
    const std::span<const Vertex> frontier = levels_.level(current);
    sched_->parallel_for(
        0, static_cast<std::int64_t>(frontier.size()), grain(frontier.size()),
        [&](std::int64_t lo, std::int64_t hi, int slot) {
          std::vector<Vertex>& next = next_.local(slot);
          std::uint64_t lost_claims = 0;
          for (std::int64_t i = lo; i < hi; ++i) {
            const Vertex v = frontier[static_cast<std::size_t>(i)];
            const double sv = sigma(v);
            for (Vertex w : g.out_neighbors(v)) {
              std::int32_t seen = kUnvisited;
              if (dist_[w].compare_exchange_strong(seen, depth + 1,
                                                   std::memory_order_relaxed)) {
                next.push_back(w);
                seen = depth + 1;
              } else if (seen == depth + 1) {
                ++lost_claims;
              }
              if (seen == depth + 1) {
                sigma_[w].fetch_add(sv, std::memory_order_relaxed);
                on_arc(v, w);
              }
            }
          }
          if (lost_claims != 0) {
            cas_retries_.fetch_add(lost_claims, std::memory_order_relaxed);
          }
        });
    next_.drain_into(levels_);
  }

  template <typename OnArc>
  void pull_level(const CsrGraph& g, std::int32_t depth, OnArc& on_arc) {
    sched_->parallel_for(
        0, static_cast<std::int64_t>(candidates_.size()),
        grain(candidates_.size()),
        [&](std::int64_t lo, std::int64_t hi, int slot) {
          std::vector<Vertex>& next = next_.local(slot);
          std::vector<Vertex>& remaining = remaining_.local(slot);
          for (std::int64_t i = lo; i < hi; ++i) {
            const Vertex v = candidates_[static_cast<std::size_t>(i)];
            double paths = 0.0;
            for (Vertex u : g.in_neighbors(v)) {
              if (dist(u) == depth) {
                paths += sigma(u);
                on_arc(u, v);
              }
            }
            if (paths > 0.0) {
              dist_[v].store(depth + 1, std::memory_order_relaxed);
              sigma_[v].store(paths, std::memory_order_relaxed);
              next.push_back(v);
            } else {
              remaining.push_back(v);
            }
          }
        });
    next_.drain_into(levels_);
    candidates_.clear();
    remaining_.drain_into(candidates_);
  }

  std::vector<std::atomic<std::int32_t>> dist_;
  std::vector<std::atomic<double>> sigma_;
  LevelBuckets levels_;
  SlotLocalFrontier next_;
  SlotLocalFrontier remaining_;
  std::vector<Vertex> candidates_;  // unvisited vertices, bottom-up levels
  WorkStealingScheduler* sched_;
  std::atomic<std::uint64_t> cas_retries_{0};
  std::uint64_t bottom_up_levels_ = 0;
};

}  // namespace apgre
