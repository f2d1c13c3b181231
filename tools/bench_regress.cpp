// bench_regress — gated performance-regression harness.
//
//   bench_regress --repeat 5 --out BENCH_head.json
//   bench_regress --baseline BENCH_main.json --threshold 0.3
//   bench_regress --graphs both --algo-set serial,apgre --out bench.json
//
// Runs the seeded check corpus (and optionally the Table-1 workload
// analogues) across a chosen algorithm set, records median / p90 wall time
// and MTEPS over N repetitions plus a metrics-registry snapshot and
// aggregated tracing spans, and emits a schema-versioned JSON report.
// In --baseline mode the current run is compared against a previous report:
// any (graph, algorithm) pair whose median slows down by more than
// --threshold (relative) fails the gate.
//
// Exit status: 0 clean, 1 at least one regression, 2 usage error or a
// malformed / schema-incompatible baseline. docs/OBSERVABILITY.md describes
// the report format and how CI refreshes its baseline artifact.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bc/bc.hpp"
#include "bc/incremental.hpp"
#include "bcc/bicomp.hpp"
#include "bcc/parallel_bicomp.hpp"
#include "bcc/queries.hpp"
#include "check/corpus.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "graph/transform.hpp"
#include "graph/update.hpp"
#include "service/service.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/sched/scheduler.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace apgre;

constexpr std::int64_t kSchemaVersion = 1;

/// The measured columns of the report, one registry algorithm each.
std::vector<Algorithm> parse_algo_set(const std::string& spec) {
  std::vector<Algorithm> set;
  auto add = [&set](const std::string& name) {
    set.push_back(algorithm_from_name(name));
  };
  std::stringstream ss(spec);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (name.empty()) continue;
    if (name == "exact") {
      // Registry-derived default: every exact non-oracle algorithm.
      for (const AlgorithmInfo& info : algorithm_registry()) {
        if (info.exact && !info.test_only) add(info.name);
      }
    } else {
      add(name);
    }
  }
  APGRE_REQUIRE(!set.empty(), "--algo-set selected no algorithms");
  return set;
}

struct BenchGraph {
  std::string name;
  CsrGraph graph;
};

std::vector<BenchGraph> build_graph_list(const std::string& graphs,
                                         std::uint64_t seed, double scale) {
  APGRE_REQUIRE(graphs == "corpus" || graphs == "workloads" || graphs == "both",
                "--graphs must be corpus, workloads or both");
  std::vector<BenchGraph> list;
  if (graphs != "workloads") {
    for (CorpusCase& c : graph_corpus(seed, /*tiny=*/false)) {
      list.push_back({"corpus/" + c.name, std::move(c.graph)});
    }
  }
  if (graphs != "corpus") {
    for (const bench::Workload& w : bench::all_workloads(scale)) {
      list.push_back({"workload/" + w.id, w.build()});
    }
  }
  // The scheduler's skewed-decomposition stress graph rides along in every
  // set, so every report records APGRE on its stress workload.
  const bench::Workload skew = bench::skewed_workload(scale);
  list.push_back({"workload/" + skew.id, skew.build()});
  return list;
}

/// Aggregate the drained spans as name -> {count, total_seconds}.
JsonValue aggregate_spans(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::pair<std::int64_t, double>> agg;
  for (const SpanRecord& s : spans) {
    auto& [count, total] = agg[s.name];
    ++count;
    total += s.elapsed_seconds();
  }
  JsonValue::Object out;
  for (const auto& [name, pair] : agg) {
    JsonValue::Object entry;
    entry["count"] = JsonValue(pair.first);
    entry["total_seconds"] = JsonValue(pair.second);
    out[name] = JsonValue(std::move(entry));
  }
  return JsonValue(std::move(out));
}

/// Registry entries written since the last reset, as name -> number
/// (histograms as {count, sum}). A counter added 0 is kept: a forest that
/// peels to nothing runs no APGRE source, and its report still says so.
JsonValue snapshot_metrics() {
  JsonValue::Object out;
  for (const MetricSample& s : metrics().snapshot()) {
    if (!s.written) continue;
    if (s.kind == MetricKind::kHistogram) {
      JsonValue::Object h;
      h["count"] = JsonValue(s.number);
      h["sum"] = JsonValue(s.histogram_sum);
      out[s.name] = JsonValue(std::move(h));
    } else {
      out[s.name] = JsonValue(s.number);
    }
  }
  return JsonValue(std::move(out));
}

JsonValue measure(const BenchGraph& bg, Algorithm algorithm, int repeat,
                  int warmup, int threads) {
  BcOptions opts;
  opts.algorithm = algorithm;
  opts.threads = threads;
  for (int i = 0; i < warmup; ++i) betweenness(bg.graph, opts);
  metrics().reset();
  clear_spans();

  std::vector<double> seconds;
  std::vector<double> mteps;
  seconds.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    const BcResult r = betweenness(bg.graph, opts);
    APGRE_REQUIRE(r.status.ok(),
                  algorithm_name(algorithm) + ": " + r.status.message);
    seconds.push_back(r.seconds);
    mteps.push_back(r.mteps);
  }

  JsonValue::Object out;
  out["reps"] = JsonValue(static_cast<std::int64_t>(repeat));
  out["seconds_median"] = JsonValue(percentile(seconds, 50.0));
  out["seconds_p90"] = JsonValue(percentile(seconds, 90.0));
  out["seconds_min"] = JsonValue(*std::min_element(seconds.begin(), seconds.end()));
  out["mteps_median"] = JsonValue(percentile(mteps, 50.0));
  out["metrics"] = snapshot_metrics();
  out["spans"] = aggregate_spans(collect_spans());
  return JsonValue(std::move(out));
}

/// --workload service: measure request throughput of an apgre::Service
/// under `clients` concurrent client threads, each issuing `per_client`
/// mixed solve / top_k / update requests (deterministic per-client request
/// streams) over the tiny seeded corpus. Returns the report's "service"
/// object: requests/sec, the warm-session hit rate, and the raw counters.
JsonValue run_service_workload(std::uint64_t seed, int clients,
                               int per_client, int threads) {
  ServiceOptions options;
  options.workers = threads > 0 ? threads : 4;
  options.session_capacity = 4;
  Service service(options);

  std::vector<std::string> names;
  for (CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
    names.push_back(c.name);
    service.register_graph(c.name, std::move(c.graph));
  }
  APGRE_REQUIRE(!names.empty(), "service workload: empty corpus");

  Timer timer;
  std::atomic<std::uint64_t> issued{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < per_client; ++i) {
        Request request;
        request.graph = names[rng() % names.size()];
        const std::uint64_t roll = rng() % 10;
        if (roll < 5) {
          request.kind = RequestKind::kTopK;
          request.k = 8;
          request.options.algorithm = Algorithm::kBrandesSerial;
        } else if (roll < 8) {
          request.kind = RequestKind::kSolve;
          request.options.algorithm = Algorithm::kApgre;
        } else {
          request.kind = RequestKind::kUpdate;
          const auto snap = service.snapshot(request.graph);
          const Vertex n = snap == nullptr ? 0 : snap->num_vertices();
          if (n < 2) continue;
          request.u = static_cast<Vertex>(rng() % n);
          request.v = static_cast<Vertex>(rng() % n);
          // Duplicate inserts / self-loops come back as error responses;
          // they still exercise the queue and are counted as requests.
        }
        service.submit(std::move(request)).get();
        issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed = timer.seconds();

  const ServiceStats stats = service.stats();
  JsonValue::Object out;
  out["clients"] = JsonValue(static_cast<std::int64_t>(clients));
  out["requests_per_client"] = JsonValue(static_cast<std::int64_t>(per_client));
  out["requests"] = JsonValue(issued.load());
  out["elapsed_seconds"] = JsonValue(elapsed);
  out["requests_per_second"] =
      JsonValue(elapsed > 0.0 ? static_cast<double>(issued.load()) / elapsed
                              : 0.0);
  out["hit_rate"] = JsonValue(stats.hit_rate());
  JsonValue::Object counters;
  counters["solves"] = JsonValue(stats.solves);
  counters["top_k"] = JsonValue(stats.top_k);
  counters["updates"] = JsonValue(stats.updates);
  counters["updates_local"] = JsonValue(stats.updates_local);
  counters["updates_structural"] = JsonValue(stats.updates_structural);
  counters["errors"] = JsonValue(stats.errors);
  counters["session_hits"] = JsonValue(stats.session_hits);
  counters["session_misses"] = JsonValue(stats.session_misses);
  counters["session_evictions"] = JsonValue(stats.session_evictions);
  out["counters"] = JsonValue(std::move(counters));
  return JsonValue(std::move(out));
}

/// --workload service_parallel: the reentrancy benchmark. Every request is
/// a full solve with a *parallel* kernel (APGRE, hybrid, lock-free), issued
/// synchronously by `clients` concurrent threads. All of them run on the
/// reentrant work-stealing scheduler, so concurrent solves overlap; this
/// workload records the scaling (aggregate requests/sec + per-solve latency
/// percentiles, per algorithm and overall) in the same schema-v1 report.
JsonValue run_service_parallel_workload(std::uint64_t seed, int clients,
                                        int per_client, int threads) {
  ServiceOptions options;
  options.workers = threads > 0 ? threads : std::max(clients, 1);
  options.session_capacity = 4;
  Service service(options);

  std::vector<std::string> names;
  for (CorpusCase& c : graph_corpus(seed, /*tiny=*/true)) {
    names.push_back(c.name);
    service.register_graph(c.name, std::move(c.graph));
  }
  APGRE_REQUIRE(!names.empty(), "service_parallel workload: empty corpus");

  const Algorithm algos[] = {Algorithm::kApgre, Algorithm::kHybrid,
                             Algorithm::kLockFree};
  constexpr std::size_t kAlgos = sizeof(algos) / sizeof(algos[0]);

  // Per-client latency samples, merged after the join (no shared mutable
  // state on the hot path).
  std::vector<std::vector<std::pair<std::size_t, double>>> samples(
      static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> failed{0};

  Timer timer;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + static_cast<std::uint64_t>(c));
      auto& local = samples[static_cast<std::size_t>(c)];
      local.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::size_t a = rng() % kAlgos;
        Request request;
        request.kind = RequestKind::kSolve;
        request.graph = names[rng() % names.size()];
        request.options.algorithm = algos[a];
        Timer solve_timer;
        const Response r = service.submit(std::move(request)).get();
        if (!r.ok) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        local.emplace_back(a, solve_timer.seconds());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed = timer.seconds();

  std::vector<double> all_latencies;
  std::vector<std::vector<double>> per_algo(kAlgos);
  for (const auto& client : samples) {
    for (const auto& [a, secs] : client) {
      all_latencies.push_back(secs);
      per_algo[a].push_back(secs);
    }
  }
  APGRE_REQUIRE(!all_latencies.empty(),
                "service_parallel workload: every request failed");

  JsonValue::Object out;
  out["clients"] = JsonValue(static_cast<std::int64_t>(clients));
  out["requests_per_client"] = JsonValue(static_cast<std::int64_t>(per_client));
  out["requests"] =
      JsonValue(static_cast<std::int64_t>(all_latencies.size()));
  out["failed"] = JsonValue(failed.load());
  out["elapsed_seconds"] = JsonValue(elapsed);
  out["requests_per_second"] = JsonValue(
      elapsed > 0.0 ? static_cast<double>(all_latencies.size()) / elapsed
                    : 0.0);
  out["solve_seconds_p50"] = JsonValue(percentile(all_latencies, 50.0));
  out["solve_seconds_p90"] = JsonValue(percentile(all_latencies, 90.0));
  JsonValue::Object by_algo;
  for (std::size_t a = 0; a < kAlgos; ++a) {
    if (per_algo[a].empty()) continue;
    JsonValue::Object entry;
    entry["requests"] =
        JsonValue(static_cast<std::int64_t>(per_algo[a].size()));
    entry["solve_seconds_p50"] = JsonValue(percentile(per_algo[a], 50.0));
    entry["solve_seconds_p90"] = JsonValue(percentile(per_algo[a], 90.0));
    by_algo[algorithm_name(algos[a])] = JsonValue(std::move(entry));
  }
  out["algorithms"] = JsonValue(std::move(by_algo));
  return JsonValue(std::move(out));
}

/// --workload updates: sustained updates/sec of the BCC-localized
/// incremental path (bc/incremental.hpp) vs a full re-solve per update, on
/// a many-block caveman graph (>= 10 biconnected components chained by
/// articulation points). merge_threshold drops to 2 so every clique is its
/// own sub-graph — the geometry the localized path exists for. The
/// trajectory alternates delete / re-insert over intra-clique edges whose
/// endpoints are non-articulation vertices, so every step classifies
/// kLocalDelete / kLocalInsert; the workload asserts the localized run
/// never re-decomposed ("bcc.decompositions" stays flat) and that the
/// final incremental scores match a fresh serial solve.
JsonValue run_updates_workload(std::uint64_t seed, int updates, double scale) {
  const Vertex cliques = 32;
  const Vertex clique_size =
      std::max<Vertex>(6, static_cast<Vertex>(32.0 * scale));
  const CsrGraph graph = caveman(cliques, clique_size, seed);

  BcOptions opts;
  opts.algorithm = Algorithm::kApgre;
  // Default grouping would merge the small cliques into few sub-graphs and
  // re-score most of the graph per update; one block per sub-graph is the
  // honest localized-update geometry.
  opts.apgre.partition.merge_threshold = 2;

  // Candidate edges: intra-clique, both endpoints non-AP, so delete AND
  // re-insert stay local and the trajectory can loop forever.
  const BlockCutQueries queries(graph);
  std::vector<Edge> candidates;
  for (Vertex u = 0; u < graph.num_vertices(); ++u) {
    for (Vertex v : graph.out_neighbors(u)) {
      if (u >= v) continue;
      // Non-AP endpoints guarantee the re-insert also classifies
      // kLocalInsert, so the alternating trajectory never goes structural.
      if (queries.classify_update(u, v, /*inserting=*/false) ==
              UpdateLocality::kLocalDelete &&
          !queries.bcc().is_articulation[u] &&
          !queries.bcc().is_articulation[v]) {
        candidates.push_back(Edge{u, v});
      }
    }
  }
  APGRE_REQUIRE(!candidates.empty(), "updates workload: no local candidates");

  // Localized path.
  IncrementalBc engine(graph, opts);
  const std::size_t blocks = engine.graph().num_vertices() == 0
                                 ? 0
                                 : queries.bcc().num_components;
  const std::uint64_t decompositions_before =
      metrics().counter("bcc.decompositions").value();
  // Delete then immediately re-insert each candidate (round-robin): the
  // graph never strays more than one edge from the original, so every
  // delete sees a still-biconnected block and every step stays local.
  // Deleting many edges before re-inserting would genuinely reshape the
  // block-cut tree (a vertex stripped to degree one goes pendant) and the
  // classifier would — correctly — go structural.
  Timer local_timer;
  for (int i = 0; i < updates; ++i) {
    const Edge e =
        candidates[static_cast<std::size_t>(i / 2) % candidates.size()];
    if (i % 2 == 0) {
      engine.remove_edge(e.src, e.dst);
    } else {
      engine.insert_edge(e.src, e.dst);
    }
  }
  const double local_elapsed = local_timer.seconds();
  const std::uint64_t decompositions =
      metrics().counter("bcc.decompositions").value() - decompositions_before;
  APGRE_REQUIRE(engine.stats().structural_resolves == 0,
                "updates workload: localized path fell back to a full solve "
                "(" + std::to_string(engine.stats().structural_resolves) +
                    " of " + std::to_string(updates) + " steps)");
  APGRE_REQUIRE(decompositions == 0,
                "updates workload: localized path re-decomposed");

  // Full-re-solve baseline: mutate + fresh decomposition + solve per
  // update, over the same trajectory prefix (capped — it is the slow side).
  const int full_updates = std::min(updates, 16);
  CsrGraph full_graph = graph;
  Timer full_timer;
  for (int i = 0; i < full_updates; ++i) {
    const Edge e =
        candidates[static_cast<std::size_t>(i / 2) % candidates.size()];
    full_graph = i % 2 == 0 ? with_edge_removed(full_graph, e.src, e.dst)
                            : with_edge_inserted(full_graph, e.src, e.dst);
    const BcResult r = betweenness(full_graph, opts);
    APGRE_REQUIRE(r.status.ok(), "updates workload: " + r.status.message);
  }
  const double full_elapsed = full_timer.seconds();

  // Exactness: the incremental scores must match a fresh static solve of
  // the final graph (the bench's own oracle diff, oracle tolerance).
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const std::vector<double> expected =
      betweenness(engine.graph(), serial).scores;
  for (Vertex v = 0; v < engine.graph().num_vertices(); ++v) {
    const double a = expected[v];
    const double b = engine.scores()[v];
    APGRE_REQUIRE(
        std::abs(a - b) <= 1e-6 + 1e-7 * std::max(std::abs(a), std::abs(b)),
        "updates workload: incremental scores diverged from static solve");
  }

  const double local_ups =
      local_elapsed > 0.0 ? static_cast<double>(updates) / local_elapsed : 0.0;
  const double full_ups = full_elapsed > 0.0
                              ? static_cast<double>(full_updates) / full_elapsed
                              : 0.0;
  JsonValue::Object out;
  out["graph_vertices"] =
      JsonValue(static_cast<std::uint64_t>(graph.num_vertices()));
  out["graph_arcs"] = JsonValue(static_cast<std::uint64_t>(graph.num_arcs()));
  out["blocks"] = JsonValue(static_cast<std::uint64_t>(blocks));
  out["candidate_edges"] =
      JsonValue(static_cast<std::int64_t>(candidates.size()));
  out["updates"] = JsonValue(static_cast<std::int64_t>(updates));
  out["localized_elapsed_seconds"] = JsonValue(local_elapsed);
  out["localized_updates_per_second"] = JsonValue(local_ups);
  out["full_resolve_updates"] = JsonValue(static_cast<std::int64_t>(full_updates));
  out["full_resolve_elapsed_seconds"] = JsonValue(full_elapsed);
  out["full_resolve_updates_per_second"] = JsonValue(full_ups);
  out["speedup"] = JsonValue(full_ups > 0.0 ? local_ups / full_ups : 0.0);
  out["decompositions_during_trajectory"] = JsonValue(decompositions);
  JsonValue::Object counters;
  counters["local_inserts"] = JsonValue(engine.stats().local_inserts);
  counters["local_deletes"] = JsonValue(engine.stats().local_deletes);
  counters["structural_resolves"] =
      JsonValue(engine.stats().structural_resolves);
  out["engine"] = JsonValue(std::move(counters));
  return JsonValue(std::move(out));
}

/// --workload stream: sustained batched-ingest throughput of
/// IncrementalBc::apply_batch vs replaying the same ops one edge at a time
/// through the per-edge localized path. The trajectory alternates a batch
/// of `batch_size` vertex-disjoint non-AP chord deletions inside ONE
/// clique of a caveman graph with the batch re-inserting them, round-robin
/// over the cliques, so every batch classifies local and lands in a single
/// block — the geometry where whole-batch classification amortises k
/// per-edge block re-solves into one. merge_threshold drops to 2 (one
/// block per sub-graph), the workload asserts zero batch downgrades and a
/// flat "bcc.decompositions" counter across the batched run, and the final
/// incremental scores are diffed against a fresh serial Brandes solve.
/// `--stream-out` records the generated trajectory as binary edge-batch
/// frames (graph/update.hpp); `--stream-file` replays a recorded file
/// instead of generating; `--replay-speed N` paces batches by their
/// recorded millisecond timestamps at N× speed (0 = unpaced).
JsonValue run_stream_workload(std::uint64_t seed, int batches, int batch_size,
                              double scale, double replay_speed,
                              const std::string& stream_file,
                              const std::string& stream_out) {
  const Vertex cliques = 8;
  const Vertex clique_size =
      std::max<Vertex>(20, static_cast<Vertex>(56.0 * scale));
  const CsrGraph graph = caveman(cliques, clique_size, seed);

  BcOptions opts;
  opts.algorithm = Algorithm::kApgre;
  // One block per sub-graph: the honest localized geometry (see the
  // updates workload) and the one where blocks_resolved == affected blocks.
  opts.apgre.partition.merge_threshold = 2;

  // Per-block pools of vertex-disjoint chords with non-AP endpoints:
  // deleting the whole pool leaves every member at high degree, so the
  // block survives the net batch and the re-insert batch is pure chords.
  const BlockCutQueries queries(graph);
  std::map<Vertex, std::vector<Edge>> pool_of_block;
  {
    std::vector<bool> used(graph.num_vertices(), false);
    for (Vertex u = 0; u < graph.num_vertices(); ++u) {
      for (Vertex v : graph.out_neighbors(u)) {
        if (u >= v || used[u] || used[v]) continue;
        if (queries.bcc().is_articulation[u] ||
            queries.bcc().is_articulation[v]) {
          continue;
        }
        if (queries.classify_update(u, v, /*inserting=*/false) !=
            UpdateLocality::kLocalDelete) {
          continue;
        }
        const Vertex block = queries.common_block(u, v);
        auto& pool = pool_of_block[block];
        if (pool.size() >= static_cast<std::size_t>(batch_size)) continue;
        pool.push_back(Edge{u, v});
        used[u] = used[v] = true;
      }
    }
  }
  std::vector<std::vector<Edge>> pools;
  for (auto& [block, pool] : pool_of_block) {
    if (pool.size() == static_cast<std::size_t>(batch_size)) {
      pools.push_back(std::move(pool));
    }
  }
  APGRE_REQUIRE(!pools.empty(),
                "stream workload: no clique yields " +
                    std::to_string(batch_size) +
                    " disjoint chords; lower --batch-size or raise --scale");

  // Trajectory: batch 2i deletes clique (i % pools)'s chord pool, batch
  // 2i+1 re-inserts it. Timestamps are milliseconds, 100ms between batches
  // (only read back under --replay-speed pacing).
  std::vector<UpdateRequest> trajectory;
  if (stream_file.empty()) {
    trajectory.reserve(static_cast<std::size_t>(batches));
    for (int b = 0; b < batches; ++b) {
      const auto& pool = pools[static_cast<std::size_t>(b / 2) % pools.size()];
      UpdateRequest batch;
      batch.ops.reserve(pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        EdgeOp op;
        op.u = pool[i].src;
        op.v = pool[i].dst;
        op.insert = b % 2 != 0;
        op.timestamp = static_cast<std::uint64_t>(b) * 100 + i;
        batch.ops.push_back(op);
      }
      trajectory.push_back(std::move(batch));
    }
    if (!stream_out.empty()) write_edge_batch_file(stream_out, trajectory);
  } else {
    trajectory = read_edge_batch_file(stream_file);
    APGRE_REQUIRE(!trajectory.empty(),
                  "stream workload: " + stream_file + " holds no batches");
  }

  // Batched run.
  IncrementalBc engine(graph, opts);
  const std::uint64_t decompositions_before =
      metrics().counter("bcc.decompositions").value();
  std::vector<double> batch_seconds;
  batch_seconds.reserve(trajectory.size());
  std::uint64_t ops_total = 0;
  Timer stream_timer;
  const std::uint64_t first_ts =
      trajectory.front().ops.empty() ? 0 : trajectory.front().ops.front().timestamp;
  for (const UpdateRequest& batch : trajectory) {
    if (replay_speed > 0.0 && !batch.ops.empty()) {
      const double due_ms = static_cast<double>(batch.ops.front().timestamp -
                                                first_ts) /
                            replay_speed;
      const double now_ms = stream_timer.seconds() * 1000.0;
      if (due_ms > now_ms) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(due_ms - now_ms));
      }
    }
    ops_total += batch.ops.size();
    Timer batch_timer;
    engine.apply_batch(batch);
    batch_seconds.push_back(batch_timer.seconds());
  }
  const double stream_elapsed = stream_timer.seconds();
  const std::uint64_t decompositions =
      metrics().counter("bcc.decompositions").value() - decompositions_before;
  const IncrementalStats stats = engine.stats();
  APGRE_REQUIRE(stats.batch_downgrades == 0,
                "stream workload: " + std::to_string(stats.batch_downgrades) +
                    " of " + std::to_string(trajectory.size()) +
                    " batches downgraded to a structural re-solve");
  APGRE_REQUIRE(decompositions == 0,
                "stream workload: batched path re-decomposed");

  // Exactness: the batched scores must reproduce a fresh serial solve of
  // the final graph (hard gate — throughput means nothing if it drifts).
  {
    BcOptions serial;
    serial.algorithm = Algorithm::kBrandesSerial;
    const std::vector<double> expected =
        betweenness(engine.graph(), serial).scores;
    for (Vertex v = 0; v < engine.graph().num_vertices(); ++v) {
      const double a = expected[v];
      const double b = engine.scores()[v];
      APGRE_REQUIRE(
          std::abs(a - b) <= 1e-6 + 1e-7 * std::max(std::abs(a), std::abs(b)),
          "stream workload: batched scores diverged from serial Brandes at v" +
              std::to_string(v));
    }
  }

  // Per-edge replay baseline: the same trajectory prefix through the
  // per-edge localized path, one remove_edge/insert_edge per op (capped —
  // it is the slow side by design).
  const std::size_t replay_batches =
      std::min<std::size_t>(trajectory.size(), 24);
  IncrementalBc per_edge(graph, opts);
  std::uint64_t replay_ops = 0;
  Timer replay_timer;
  for (std::size_t b = 0; b < replay_batches; ++b) {
    for (const EdgeOp& op : trajectory[b].ops) {
      if (op.insert) {
        per_edge.insert_edge(op.u, op.v);
      } else {
        per_edge.remove_edge(op.u, op.v);
      }
      ++replay_ops;
    }
  }
  const double replay_elapsed = replay_timer.seconds();

  const double stream_ups =
      stream_elapsed > 0.0 ? static_cast<double>(ops_total) / stream_elapsed
                           : 0.0;
  const double replay_ups =
      replay_elapsed > 0.0 ? static_cast<double>(replay_ops) / replay_elapsed
                           : 0.0;
  JsonValue::Object out;
  out["graph_vertices"] =
      JsonValue(static_cast<std::uint64_t>(graph.num_vertices()));
  out["graph_arcs"] = JsonValue(static_cast<std::uint64_t>(graph.num_arcs()));
  out["blocks"] =
      JsonValue(static_cast<std::uint64_t>(queries.bcc().num_components));
  out["batches"] = JsonValue(static_cast<std::uint64_t>(trajectory.size()));
  out["batch_size"] = JsonValue(static_cast<std::int64_t>(batch_size));
  out["ops"] = JsonValue(ops_total);
  out["replay_speed"] = JsonValue(replay_speed);
  out["elapsed_seconds"] = JsonValue(stream_elapsed);
  out["updates_per_second"] = JsonValue(stream_ups);
  out["batch_seconds_p50"] = JsonValue(percentile(batch_seconds, 50.0));
  out["batch_seconds_p90"] = JsonValue(percentile(batch_seconds, 90.0));
  out["per_edge_replay_batches"] =
      JsonValue(static_cast<std::uint64_t>(replay_batches));
  out["per_edge_replay_ops"] = JsonValue(replay_ops);
  out["per_edge_replay_elapsed_seconds"] = JsonValue(replay_elapsed);
  out["per_edge_replay_updates_per_second"] = JsonValue(replay_ups);
  out["speedup"] = JsonValue(replay_ups > 0.0 ? stream_ups / replay_ups : 0.0);
  JsonValue::Object counters;
  counters["batches"] = JsonValue(stats.batches);
  counters["batch_edges"] = JsonValue(stats.batch_edges);
  counters["coalesced_away"] = JsonValue(stats.coalesced_away);
  counters["blocks_resolved"] = JsonValue(stats.blocks_resolved);
  counters["batch_downgrades"] = JsonValue(stats.batch_downgrades);
  out["engine"] = JsonValue(std::move(counters));
  return JsonValue(std::move(out));
}

/// --workload peeling: end-to-end effect of the 2-core peel
/// (graph/transform.hpp) on the geometry it targets — a scale-free core
/// with a dominating tree fringe (preferential attachment + tendril chains
/// + pendants, the skew real social/web graphs show). Times scheduled APGRE
/// with PartitionOptions::peel_two_core off vs on (median of `repeat` runs
/// each), self-checks the peeled scores against a fresh serial Brandes
/// solve at the oracle tolerance, and reports the measured core fraction
/// next to the speedup so a regressing ratio is attributable (did the peel
/// get slower, or the fringe smaller?).
JsonValue run_peeling_workload(std::uint64_t seed, int repeat, double scale) {
  const Vertex core = std::max<Vertex>(64, static_cast<Vertex>(2000.0 * scale));
  const CsrGraph graph = attach_pendants(
      attach_chains(barabasi_albert(core, 4, seed),
                    /*count=*/core / 2, /*length=*/4, seed + 1),
      /*count=*/2 * core, seed + 2);

  BcOptions off;
  off.algorithm = Algorithm::kApgre;
  BcOptions on = off;
  on.apgre.partition.peel_two_core = true;

  auto median_seconds = [&](const BcOptions& opts, ApgreStats* stats) {
    std::vector<double> seconds;
    seconds.reserve(static_cast<std::size_t>(repeat));
    for (int i = 0; i < repeat; ++i) {
      const BcResult r = betweenness(graph, opts);
      APGRE_REQUIRE(r.status.ok(), "peeling workload: " + r.status.message);
      seconds.push_back(r.seconds);
      if (stats != nullptr) *stats = r.apgre_stats;
    }
    return percentile(seconds, 50.0);
  };
  const double off_seconds = median_seconds(off, nullptr);
  ApgreStats peel_stats;
  const double on_seconds = median_seconds(on, &peel_stats);

  // Exactness self-check: the peeled run must reproduce serial Brandes.
  BcOptions serial;
  serial.algorithm = Algorithm::kBrandesSerial;
  const std::vector<double> expected = betweenness(graph, serial).scores;
  const std::vector<double> actual = betweenness(graph, on).scores;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    const double a = expected[v];
    const double b = actual[v];
    APGRE_REQUIRE(
        std::abs(a - b) <= 1e-6 + 1e-7 * std::max(std::abs(a), std::abs(b)),
        "peeling workload: peeled scores diverged from serial Brandes at v" +
            std::to_string(v));
  }

  JsonValue::Object out;
  out["graph_vertices"] =
      JsonValue(static_cast<std::uint64_t>(graph.num_vertices()));
  out["graph_arcs"] = JsonValue(static_cast<std::uint64_t>(graph.num_arcs()));
  out["peeled_vertices"] =
      JsonValue(static_cast<std::uint64_t>(peel_stats.peeled_vertices));
  out["core_fraction"] = JsonValue(peel_stats.core_fraction);
  out["peel_seconds"] = JsonValue(peel_stats.peel_seconds);
  out["reps"] = JsonValue(static_cast<std::int64_t>(repeat));
  out["peel_off_seconds_median"] = JsonValue(off_seconds);
  out["peel_on_seconds_median"] = JsonValue(on_seconds);
  out["speedup"] =
      JsonValue(on_seconds > 0.0 ? off_seconds / on_seconds : 0.0);
  return JsonValue(std::move(out));
}

/// --workload decompose: serial Hopcroft-Tarjan DFS vs the parallel
/// Tarjan-Vishkin-style biconnectivity pass (bcc/parallel_bicomp.hpp) on the
/// fringe-heavy scale-free geometry the peeling workload uses — one giant
/// core block plus tens of thousands of bridge blocks, the skew that makes
/// the decomposition a measurable fraction of an APGRE solve. Reports the
/// median seconds and blocks/sec of each pass plus the speedup, and hard-
/// gates exactness: the parallel output must be structure-identical to the
/// canonicalized serial output field by field (timing means nothing if the
/// block structure drifts). The parallel timing includes its built-in
/// canonicalization — that is what production pays; the serial pass is
/// timed as production runs it (DFS numbering) and canonicalized outside
/// the timer for the comparison only.
JsonValue run_decompose_workload(std::uint64_t seed, int repeat, double scale) {
  const Vertex core =
      std::max<Vertex>(256, static_cast<Vertex>(24000.0 * scale));
  const CsrGraph graph = attach_pendants(
      attach_chains(barabasi_albert(core, 4, seed),
                    /*count=*/core / 2, /*length=*/6, seed + 1),
      /*count=*/2 * core, seed + 2);

  auto median_seconds = [repeat](auto&& run) {
    std::vector<double> seconds;
    seconds.reserve(static_cast<std::size_t>(repeat));
    for (int i = 0; i < repeat; ++i) {
      Timer t;
      run();
      seconds.push_back(t.seconds());
    }
    return percentile(seconds, 50.0);
  };

  BiconnectedComponents serial_bcc;
  const double serial_seconds =
      median_seconds([&] { serial_bcc = biconnected_components(graph); });
  BiconnectedComponents parallel_bcc;
  const double parallel_seconds = median_seconds(
      [&] { parallel_bcc = parallel_biconnected_components(graph); });

  // Hard exactness gate.
  canonicalize_blocks(serial_bcc);
  APGRE_REQUIRE(parallel_bcc.num_components == serial_bcc.num_components,
                "decompose workload: block counts diverge (parallel " +
                    std::to_string(parallel_bcc.num_components) + " vs serial " +
                    std::to_string(serial_bcc.num_components) + ")");
  APGRE_REQUIRE(parallel_bcc.component_vertices == serial_bcc.component_vertices,
                "decompose workload: block vertex sets diverge");
  APGRE_REQUIRE(parallel_bcc.component_edges == serial_bcc.component_edges,
                "decompose workload: block edge sets diverge");
  APGRE_REQUIRE(parallel_bcc.any_component == serial_bcc.any_component,
                "decompose workload: any_component maps diverge");
  APGRE_REQUIRE(parallel_bcc.is_articulation == serial_bcc.is_articulation,
                "decompose workload: articulation flags diverge");

  const double blocks = static_cast<double>(serial_bcc.num_components);
  JsonValue::Object out;
  out["graph_vertices"] =
      JsonValue(static_cast<std::uint64_t>(graph.num_vertices()));
  out["graph_arcs"] = JsonValue(static_cast<std::uint64_t>(graph.num_arcs()));
  out["blocks"] = JsonValue(static_cast<std::uint64_t>(serial_bcc.num_components));
  out["reps"] = JsonValue(static_cast<std::int64_t>(repeat));
  out["serial_seconds_median"] = JsonValue(serial_seconds);
  out["parallel_seconds_median"] = JsonValue(parallel_seconds);
  out["serial_blocks_per_second"] =
      JsonValue(serial_seconds > 0.0 ? blocks / serial_seconds : 0.0);
  out["parallel_blocks_per_second"] =
      JsonValue(parallel_seconds > 0.0 ? blocks / parallel_seconds : 0.0);
  out["speedup"] =
      JsonValue(parallel_seconds > 0.0 ? serial_seconds / parallel_seconds
                                       : 0.0);
  return JsonValue(std::move(out));
}

/// Throws Error on unreadable / malformed / schema-incompatible reports.
JsonValue load_report(const std::string& path) {
  std::ifstream in(path);
  APGRE_REQUIRE(in.good(), "cannot open report: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue report = JsonValue::parse(buf.str());
  APGRE_REQUIRE(report.is_object() && report.contains("schema_version"),
                "report " + path + " has no schema_version");
  APGRE_REQUIRE(report.at("schema_version").as_double() ==
                    static_cast<double>(kSchemaVersion),
                "report " + path + " has unsupported schema_version");
  APGRE_REQUIRE(report.contains("results") && report.at("results").is_array(),
                "report " + path + " has no results array");
  return report;
}

struct GateOutcome {
  std::size_t compared = 0;
  std::size_t skipped = 0;
  std::size_t regressions = 0;
};

/// Compare head timings against the baseline report; a pair regresses when
/// head > base * (1 + threshold). The gate runs on seconds_min, not the
/// median: scheduler noise only ever adds time, so the per-pair minimum is
/// the stable estimator on a shared machine (medians of sub-10ms runs
/// jitter past any reasonable threshold). Pairs missing on either side are
/// skipped — graph and algorithm sets may legitimately drift between
/// revisions.
GateOutcome gate_against_baseline(const JsonValue& baseline, const JsonValue& head,
                                  double threshold, double min_delta) {
  std::map<std::string, double> base_times;
  for (const JsonValue& result : baseline.at("results").as_array()) {
    const std::string graph = result.at("graph").as_string();
    for (const auto& [algo, stats] : result.at("algorithms").as_object()) {
      base_times[graph + "#" + algo] = stats.at("seconds_min").as_double();
    }
  }

  GateOutcome outcome;
  for (const JsonValue& result : head.at("results").as_array()) {
    const std::string graph = result.at("graph").as_string();
    for (const auto& [algo, stats] : result.at("algorithms").as_object()) {
      const auto it = base_times.find(graph + "#" + algo);
      if (it == base_times.end()) {
        ++outcome.skipped;
        continue;
      }
      ++outcome.compared;
      const double base = it->second;
      const double now = stats.at("seconds_min").as_double();
      // Both a relative and an absolute bar: sub-millisecond pairs can move
      // 30% on clock granularity alone, which is not a regression.
      if (now > base * (1.0 + threshold) && now - base > min_delta) {
        ++outcome.regressions;
        std::fprintf(stderr,
                     "REGRESSION %s %s: min %.6fs vs baseline %.6fs "
                     "(+%.1f%%, threshold %.1f%%)\n",
                     graph.c_str(), algo.c_str(), now, base,
                     (now / base - 1.0) * 100.0, threshold * 100.0);
      }
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "bench_regress: perf-regression harness over the check corpus and the "
      "Table-1 workload analogues.\nusage: bench_regress [flags]");
  flags.add_int("repeat", 5, "timed repetitions per (graph, algorithm)")
      .add_int("warmup", 1, "untimed warmup runs per (graph, algorithm)")
      .add_string("algo-set", "exact",
                  "comma list of algorithm names, or `exact` (every exact "
                  "non-oracle registry entry)")
      .add_string("graphs", "corpus", "graph set: corpus, workloads or both")
      .add_double("scale", 0.25, "workload linear-scale factor")
      .add_int("seed", 1, "corpus seed")
      .add_int("threads", 0, "solve width (0 = the shared pool)")
      .add_string("out", "", "write the JSON report to this path")
      .add_string("baseline", "", "compare against this prior report")
      .add_double("threshold", 0.50,
                  "relative slowdown tolerated before the gate fails")
      .add_double("min-delta", 0.005,
                  "absolute slowdown (seconds) a regression must also exceed")
      .add_string("revision", "unknown", "revision label stored in the report")
      .add_string("workload", "kernels",
                  "kernels (per-algorithm timings), service (concurrent "
                  "mixed-request throughput against apgre::Service) or "
                  "service_parallel (concurrent clients all running "
                  "parallel-kernel solves; aggregate requests/sec + "
                  "per-solve latency percentiles) or updates (sustained "
                  "localized incremental updates/sec vs full re-solve) or "
                  "peeling (2-core peel off vs on over a tree-fringed "
                  "scale-free graph, exactness self-checked) or stream "
                  "(batched ingest via IncrementalBc::apply_batch vs "
                  "per-edge replay, exactness self-checked) or decompose "
                  "(serial DFS vs parallel biconnectivity pass, structure "
                  "exactness hard-gated)")
      .add_int("clients", 8, "service workload: concurrent client threads")
      .add_int("requests", 50, "service workload: requests per client")
      .add_int("updates", 200, "updates workload: trajectory length")
      .add_int("batches", 64, "stream workload: batches in the trajectory")
      .add_int("batch-size", 8, "stream workload: edge ops per batch")
      .add_double("replay-speed", 0.0,
                  "stream workload: pace batches by their recorded millisecond "
                  "timestamps at this multiplier (0 = unpaced)")
      .add_string("stream-file", "",
                  "stream workload: replay batches from this edge-batch file "
                  "instead of generating a trajectory")
      .add_string("stream-out", "",
                  "stream workload: record the generated trajectory to this "
                  "edge-batch file");

  std::vector<Algorithm> algo_set;
  std::vector<BenchGraph> graph_list;
  std::string workload;
  try {
    const auto positional = flags.parse(argc, argv);
    if (flags.help_requested()) {
      std::fprintf(stderr, "%s", flags.help().c_str());
      return 0;
    }
    APGRE_REQUIRE(positional.empty(), "bench_regress takes no positional arguments");
    APGRE_REQUIRE(flags.get_int("repeat") >= 1, "--repeat must be >= 1");
    APGRE_REQUIRE(flags.get_int("warmup") >= 0, "--warmup must be >= 0");
    APGRE_REQUIRE(flags.get_double("threshold") >= 0.0,
                  "--threshold must be non-negative");
    workload = flags.get_string("workload");
    APGRE_REQUIRE(workload == "kernels" || workload == "service" ||
                      workload == "service_parallel" || workload == "updates" ||
                      workload == "peeling" || workload == "stream" ||
                      workload == "decompose",
                  "--workload must be kernels, service, service_parallel, "
                  "updates, peeling, stream or decompose");
    APGRE_REQUIRE(flags.get_int("clients") >= 1, "--clients must be >= 1");
    APGRE_REQUIRE(flags.get_int("requests") >= 1, "--requests must be >= 1");
    APGRE_REQUIRE(flags.get_int("updates") >= 1, "--updates must be >= 1");
    APGRE_REQUIRE(flags.get_int("batches") >= 1, "--batches must be >= 1");
    APGRE_REQUIRE(flags.get_int("batch-size") >= 1,
                  "--batch-size must be >= 1");
    APGRE_REQUIRE(flags.get_double("replay-speed") >= 0.0,
                  "--replay-speed must be non-negative");
    if (workload == "kernels") {
      algo_set = parse_algo_set(flags.get_string("algo-set"));
      graph_list = build_graph_list(
          flags.get_string("graphs"),
          static_cast<std::uint64_t>(flags.get_int("seed")),
          flags.get_double("scale"));
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), flags.help().c_str());
    return 2;
  }

  const int repeat = static_cast<int>(flags.get_int("repeat"));
  const int warmup = static_cast<int>(flags.get_int("warmup"));
  const int threads = static_cast<int>(flags.get_int("threads"));

  JsonValue service_section;
  if (workload == "service") {
    service_section = run_service_workload(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<int>(flags.get_int("clients")),
        static_cast<int>(flags.get_int("requests")), threads);
    std::fprintf(stderr, "service workload: %.0f requests/sec, hit rate %.2f\n",
                 service_section.at("requests_per_second").as_double(),
                 service_section.at("hit_rate").as_double());
  } else if (workload == "service_parallel") {
    service_section = run_service_parallel_workload(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<int>(flags.get_int("clients")),
        static_cast<int>(flags.get_int("requests")), threads);
    std::fprintf(stderr,
                 "service_parallel workload: %d clients, %.0f requests/sec, "
                 "solve p90 %.4fs\n",
                 static_cast<int>(flags.get_int("clients")),
                 service_section.at("requests_per_second").as_double(),
                 service_section.at("solve_seconds_p90").as_double());
  }

  JsonValue updates_section;
  if (workload == "updates") {
    updates_section = run_updates_workload(
        static_cast<std::uint64_t>(flags.get_int("seed")),
        static_cast<int>(flags.get_int("updates")), flags.get_double("scale"));
    std::fprintf(stderr,
                 "updates workload: %.0f localized updates/sec vs %.1f full "
                 "re-solves/sec (%.1fx) over %.0f blocks\n",
                 updates_section.at("localized_updates_per_second").as_double(),
                 updates_section.at("full_resolve_updates_per_second")
                     .as_double(),
                 updates_section.at("speedup").as_double(),
                 updates_section.at("blocks").as_double());
  }

  JsonValue stream_section;
  if (workload == "stream") {
    try {
      stream_section = run_stream_workload(
          static_cast<std::uint64_t>(flags.get_int("seed")),
          static_cast<int>(flags.get_int("batches")),
          static_cast<int>(flags.get_int("batch-size")),
          flags.get_double("scale"), flags.get_double("replay-speed"),
          flags.get_string("stream-file"), flags.get_string("stream-out"));
    } catch (const Error& e) {
      // Exactness / downgrade gates are hard failures, not usage errors.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "stream workload: %.0f batched updates/sec vs %.0f per-edge "
                 "(%.1fx), batch p90 %.5fs, %.0f batches of %d\n",
                 stream_section.at("updates_per_second").as_double(),
                 stream_section.at("per_edge_replay_updates_per_second")
                     .as_double(),
                 stream_section.at("speedup").as_double(),
                 stream_section.at("batch_seconds_p90").as_double(),
                 stream_section.at("batches").as_double(),
                 static_cast<int>(flags.get_int("batch-size")));
  }

  JsonValue decompose_section;
  if (workload == "decompose") {
    try {
      decompose_section = run_decompose_workload(
          static_cast<std::uint64_t>(flags.get_int("seed")), repeat,
          flags.get_double("scale"));
    } catch (const Error& e) {
      // The structure-exactness gate is a hard failure, not a usage error.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr,
                 "decompose workload: %.0f blocks, serial %.4fs vs parallel "
                 "%.4fs median (%.2fx), %.0f vs %.0f blocks/sec\n",
                 decompose_section.at("blocks").as_double(),
                 decompose_section.at("serial_seconds_median").as_double(),
                 decompose_section.at("parallel_seconds_median").as_double(),
                 decompose_section.at("speedup").as_double(),
                 decompose_section.at("serial_blocks_per_second").as_double(),
                 decompose_section.at("parallel_blocks_per_second").as_double());
  }

  JsonValue peeling_section;
  if (workload == "peeling") {
    peeling_section = run_peeling_workload(
        static_cast<std::uint64_t>(flags.get_int("seed")), repeat,
        flags.get_double("scale"));
    std::fprintf(stderr,
                 "peeling workload: %.0f of %.0f vertices peeled (%.1f%% "
                 "core), %.4fs -> %.4fs median (%.2fx)\n",
                 peeling_section.at("peeled_vertices").as_double(),
                 peeling_section.at("graph_vertices").as_double(),
                 100.0 * peeling_section.at("core_fraction").as_double(),
                 peeling_section.at("peel_off_seconds_median").as_double(),
                 peeling_section.at("peel_on_seconds_median").as_double(),
                 peeling_section.at("speedup").as_double());
  }

  JsonValue::Array results;
  for (const BenchGraph& bg : graph_list) {
    JsonValue::Object algorithms;
    for (Algorithm algorithm : algo_set) {
      algorithms[algorithm_name(algorithm)] =
          measure(bg, algorithm, repeat, warmup, threads);
    }
    JsonValue::Object entry;
    entry["graph"] = JsonValue(bg.name);
    entry["vertices"] = JsonValue(static_cast<std::uint64_t>(bg.graph.num_vertices()));
    entry["arcs"] = JsonValue(static_cast<std::uint64_t>(bg.graph.num_arcs()));
    entry["directed"] = JsonValue(bg.graph.directed());
    // The paper's bar: APGRE against the trivial source-parallel baseline
    // at the same width (median over median; below 1 means APGRE wins).
    double apgre_over_coarse = 0.0;
    if (algorithms.count("apgre") != 0 && algorithms.count("coarse") != 0) {
      const double coarse =
          algorithms.at("coarse").at("seconds_median").as_double();
      if (coarse > 0.0) {
        apgre_over_coarse =
            algorithms.at("apgre").at("seconds_median").as_double() / coarse;
        entry["apgre_over_coarse"] = JsonValue(apgre_over_coarse);
      }
    }
    entry["algorithms"] = JsonValue(std::move(algorithms));
    results.push_back(JsonValue(std::move(entry)));
    std::fprintf(stderr, "measured %s (%u vertices)", bg.name.c_str(),
                 static_cast<unsigned>(bg.graph.num_vertices()));
    if (apgre_over_coarse > 0.0) {
      std::fprintf(stderr, ", apgre/coarse %.2f", apgre_over_coarse);
    }
    std::fprintf(stderr, "\n");
  }

  JsonValue::Object report;
  report["schema_version"] = JsonValue(kSchemaVersion);
  report["revision"] = JsonValue(flags.get_string("revision"));
  {
    JsonValue::Object host;
    host["pool_workers"] = JsonValue(static_cast<std::int64_t>(
        WorkStealingScheduler::shared().num_workers()));
    host["trace_enabled"] = JsonValue(trace_enabled());
    report["host"] = JsonValue(std::move(host));
  }
  {
    JsonValue::Object config;
    config["repeat"] = JsonValue(static_cast<std::int64_t>(repeat));
    config["warmup"] = JsonValue(static_cast<std::int64_t>(warmup));
    config["graphs"] = JsonValue(flags.get_string("graphs"));
    config["algo_set"] = JsonValue(flags.get_string("algo-set"));
    config["scale"] = JsonValue(flags.get_double("scale"));
    config["seed"] = JsonValue(flags.get_int("seed"));
    config["workload"] = JsonValue(workload);
    report["config"] = JsonValue(std::move(config));
  }
  report["results"] = JsonValue(std::move(results));
  if (!service_section.is_null()) {
    report["service"] = std::move(service_section);
  }
  if (!updates_section.is_null()) {
    report["updates"] = std::move(updates_section);
  }
  if (!peeling_section.is_null()) {
    report["peeling"] = std::move(peeling_section);
  }
  if (!stream_section.is_null()) {
    report["stream"] = std::move(stream_section);
  }
  if (!decompose_section.is_null()) {
    report["decompose"] = std::move(decompose_section);
  }
  const JsonValue head(std::move(report));

  if (const std::string out = flags.get_string("out"); !out.empty()) {
    std::ofstream file(out);
    if (!file.good()) {
      std::fprintf(stderr, "error: cannot write report to %s\n", out.c_str());
      return 2;
    }
    file << head.dump(2) << "\n";
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }

  if (const std::string base_path = flags.get_string("baseline");
      !base_path.empty()) {
    JsonValue baseline;
    try {
      baseline = load_report(base_path);
    } catch (const Error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const GateOutcome outcome =
        gate_against_baseline(baseline, head, flags.get_double("threshold"),
                              flags.get_double("min-delta"));
    std::fprintf(stderr,
                 "baseline gate: %zu pairs compared, %zu skipped, "
                 "%zu regressions\n",
                 outcome.compared, outcome.skipped, outcome.regressions);
    if (outcome.regressions != 0) return 1;
  }
  return 0;
}
