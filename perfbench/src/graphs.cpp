// Workload graphs and the per-client edge pools the service loop toggles.
//
// Every graph is a deterministic function of the run's --seed: sizes are
// fixed and only the random structure varies, so the work per solve stays
// within a few percent across seeds.
#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "bcc/bicomp.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "perfbench.hpp"
#include "support/prng.hpp"

namespace perfbench {

using apgre::Xoshiro256;

namespace {

std::uint64_t stream(std::uint64_t seed, std::uint64_t k) {
  return apgre::hash_combine64(seed, k);
}

std::string sizes(const CsrGraph& g) {
  return " -> V=" + std::to_string(g.num_vertices()) +
         " A=" + std::to_string(g.num_arcs());
}

}  // namespace

// A road network: one giant biconnected block (the grid), dead-end streets
// (pendants) and short cul-de-sac chains — the paper's road extreme, where
// articulation points remove little work and scoring dominates.
GraphSpec road_graph(std::uint64_t seed, bool smoke) {
  const Vertex side = smoke ? 10 : 22;
  const Vertex chains = smoke ? 6 : 40;
  const Vertex dead_ends = smoke ? 20 : 120;
  CsrGraph g = apgre::road_grid(side, side, 0.25, 0.08, stream(seed, 1));
  g = apgre::largest_component(g).graph;
  g = apgre::attach_chains(g, chains, 3, stream(seed, 2));
  g = apgre::attach_pendants(g, dead_ends, stream(seed, 3));
  const std::string params =
      "road_grid(" + std::to_string(side) + "x" + std::to_string(side) +
      ", diag 0.25, prune 0.08) largest component + " +
      std::to_string(chains) + " chains x3 + " + std::to_string(dead_ends) +
      " pendants" + sizes(g);
  return {"road", params, std::move(g)};
}

// A small scale-free core carrying a large fringe of 6-vertex satellite
// communities, 4-vertex chains and pendants (>= 10k blocks at full size):
// the paper's best-case redundancy geometry, where decomposition dominates.
GraphSpec fringe_graph(std::uint64_t seed, bool smoke) {
  const Vertex core = smoke ? 60 : 200;
  const Vertex communities = smoke ? 12 : 200;
  const Vertex chains = smoke ? 12 : 1100;
  const Vertex pendants = smoke ? 40 : 5300;
  CsrGraph g = apgre::barabasi_albert(core, 4, stream(seed, 11));
  g = apgre::attach_communities(g, communities, 6, stream(seed, 12));
  g = apgre::attach_chains(g, chains, 4, stream(seed, 13));
  g = apgre::attach_pendants(g, pendants, stream(seed, 14));
  const std::string params =
      "barabasi_albert(" + std::to_string(core) + ", 4) + " +
      std::to_string(communities) + " communities x6 + " +
      std::to_string(chains) + " chains x4 + " + std::to_string(pendants) +
      " pendants" + sizes(g);
  return {"fringe", params, std::move(g)};
}

apgre::EdgeOp OwnedEdge::toggle_op() const {
  apgre::EdgeOp op;
  op.u = u;
  op.v = v;
  op.insert = !present;
  return op;
}

std::vector<ClientPool> make_pools(const CsrGraph& g, int clients,
                                   std::size_t chords_per_client,
                                   std::size_t structural_per_client,
                                   std::uint64_t seed) {
  const Vertex n = g.num_vertices();
  const apgre::BiconnectedComponents bcc = apgre::biconnected_components(g);
  Xoshiro256 rng(seed);
  std::vector<ClientPool> pools(static_cast<std::size_t>(clients));
  std::vector<std::uint8_t> reserved(n, 0);  // structural endpoints
  std::vector<std::uint8_t> matched(n, 0);   // delete-first chord endpoints
  std::set<std::pair<Vertex, Vertex>> owned;
  auto key = [](Vertex a, Vertex b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  auto usable = [&](Vertex v) {
    return !reserved[v] && !bcc.is_articulation[v] &&
           bcc.any_component[v] != apgre::kInvalidVertex;
  };

  // Structural pool, first half: existing dead ends (pendant, host).
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), Vertex{0});
  std::shuffle(order.begin(), order.end(), rng);
  const std::size_t pendant_share = (structural_per_client + 1) / 2;
  std::size_t taken = 0;
  for (Vertex p : order) {
    if (taken == pendant_share * pools.size()) break;
    if (g.out_degree(p) != 1) continue;
    const Vertex h = g.out_neighbors(p)[0];
    if (reserved[p] || reserved[h] || g.out_degree(h) == 1) continue;
    reserved[p] = reserved[h] = 1;
    owned.insert(key(p, h));
    pools[taken % pools.size()].structural.push_back({p, h, true});
    ++taken;
  }

  // Second half: absent pairs at most three hops apart in two different
  // blocks. Inserting one merges only the blocks on that short path (so
  // the cost of the merged block does not depend on where the seed put
  // the pair); deleting it splits them again.
  const std::size_t cross_share = structural_per_client - pendant_share;
  taken = 0;
  std::vector<Vertex> depth(n, apgre::kInvalidVertex);
  for (int attempt = 0; taken < cross_share * pools.size() && attempt < 10000;
       ++attempt) {
    const auto x = static_cast<Vertex>(rng.bounded(n));
    if (!usable(x)) continue;
    std::vector<Vertex> frontier{x}, reached;
    depth[x] = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const Vertex u = frontier[i];
      if (depth[u] == 3) continue;
      for (Vertex w : g.out_neighbors(u)) {
        if (depth[w] != apgre::kInvalidVertex) continue;
        depth[w] = depth[u] + 1;
        frontier.push_back(w);
        if (depth[w] >= 2 && usable(w) &&
            bcc.any_component[w] != bcc.any_component[x] &&
            owned.count(key(x, w)) == 0) {
          reached.push_back(w);
        }
      }
    }
    for (Vertex u : frontier) depth[u] = apgre::kInvalidVertex;
    if (reached.empty()) continue;
    const Vertex y = reached[rng.bounded(reached.size())];
    reserved[x] = reserved[y] = 1;
    owned.insert(key(x, y));
    pools[taken % pools.size()].structural.push_back({x, y, false});
    ++taken;
  }

  // Chords, half in the largest block and half in the other blocks of at
  // least five members. Absent pairs toggle insert-first (a chord of a
  // biconnected block is always local); in a complete block only a
  // matching toggles delete-first (K_k minus a matching stays biconnected
  // for k >= 5), so no interleaving of owners can split a block.
  std::vector<Vertex> others;
  Vertex largest = apgre::kInvalidVertex;
  for (Vertex b = 0; b < bcc.num_components; ++b) {
    const std::size_t k = bcc.component_vertices[b].size();
    if (k < 5) continue;
    if (largest == apgre::kInvalidVertex ||
        k > bcc.component_vertices[largest].size()) {
      if (largest != apgre::kInvalidVertex) others.push_back(largest);
      largest = b;
    } else {
      others.push_back(b);
    }
  }
  auto pick_chord = [&](Vertex b, std::vector<OwnedEdge>& out) {
    const auto& members = bcc.component_vertices[b];
    const Vertex u = members[rng.bounded(members.size())];
    const Vertex v = members[rng.bounded(members.size())];
    if (u == v || !usable(u) || !usable(v)) return;
    if (owned.count(key(u, v)) != 0) return;
    if (!apgre::has_arc(g, u, v)) {
      owned.insert(key(u, v));
      out.push_back({u, v, false});
      return;
    }
    const std::size_t k = members.size();
    const bool complete = bcc.component_edges[b].size() == k * (k - 1) / 2;
    if (!complete || matched[u] || matched[v]) return;
    matched[u] = matched[v] = 1;
    owned.insert(key(u, v));
    out.push_back({u, v, true});
  };
  if (largest == apgre::kInvalidVertex) return pools;
  const std::size_t half = chords_per_client / 2;
  for (ClientPool& pool : pools) {
    for (int attempt = 0; pool.core_chords.size() < half && attempt < 10000;
         ++attempt) {
      pick_chord(largest, pool.core_chords);
    }
    for (int attempt = 0;
         !others.empty() && pool.chords.size() < chords_per_client - half &&
         attempt < 10000;
         ++attempt) {
      pick_chord(others[rng.bounded(others.size())], pool.chords);
    }
  }
  return pools;
}

}  // namespace perfbench
