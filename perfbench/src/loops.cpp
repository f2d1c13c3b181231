// The measured loops: repeated cold solves (both workloads), and the
// closed-loop mixed read/write service (traced runs).
//
// Requests are wrapped in `perfbench/<layer>.<call>` spans. In the untraced
// build (APGRE_TRACE=OFF) a TraceSpan records nothing; building its name is
// far below the timed work.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <thread>

#include "bc/bc.hpp"
#include "graph/mutate.hpp"
#include "perfbench.hpp"
#include "service/service.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace perfbench {

using apgre::Timer;

LoopResult run_solve_loop(const CsrGraph& g, const std::vector<double>& oracle,
                          double seconds, bool& perturb,
                          const std::function<void(double)>& between) {
  // betweenness() keeps no state between calls, so every solve of the same
  // graph is cold.
  LoopResult r;
  HostProbe host;
  Timer wall;
  while (wall.seconds() < seconds || r.solve.size() < 3) {
    {
      apgre::TraceSpan span("perfbench/ref.host_probe");
      r.probe.push_back(host.run());
    }
    Timer timer;
    apgre::BcResult result = [&] {
      apgre::TraceSpan span("perfbench/bc.betweenness");
      return apgre::betweenness(g);
    }();
    r.solve.push_back(timer.seconds());
    if (!result.status.ok()) {
      r.outcome.fail("solve failed: " + result.status.message);
    } else {
      check_scores(oracle, std::move(result.scores), "cold solve", perturb,
                   r.outcome);
    }
    if (between) between(wall.seconds());
  }
  return r;
}

namespace {

enum class Op { kTopK, kSolve, kLocalBatch, kStructural };

// Mix of the service loop: reads are 70% (top_k 50, solve 20), writes 30%
// (local chord batches 25, structural toggles 5).
Op pick_op(apgre::Xoshiro256& rng) {
  const double x = rng.uniform();
  if (x < 0.50) return Op::kTopK;
  if (x < 0.70) return Op::kSolve;
  if (x < 0.95) return Op::kLocalBatch;
  return Op::kStructural;
}

struct ClientLog {
  std::vector<double> overhead;
  std::vector<double> update;
  Outcome outcome;
};

constexpr const char* kGraphName = "g";

// Two clients: with four, reads of one graph overlap often enough that the
// service's session checkout builds extra cold sessions, and that feedback
// made throughput swing by 2x between identical runs on a 4-core host.
int client_count() { return std::min(2, thread_budget()); }

}  // namespace

LoopResult run_service_loop(const CsrGraph& g, const std::vector<double>& oracle,
                            double seconds, std::uint64_t seed, bool& perturb) {
  apgre::ServiceOptions options;
  options.workers = thread_budget();
  apgre::Service service(options);
  LoopResult r;
  const int clients = client_count();
  std::vector<ClientPool> pools = make_pools(g, clients, 32, 4, seed);
  const apgre::Status registered = service.register_graph(kGraphName, g);
  if (!registered.ok()) r.outcome.fail("register: " + registered.message);
  apgre::Request warm;
  warm.graph = kGraphName;
  if (!service.submit(warm).get().status.ok()) r.outcome.fail("warm-up failed");

  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::barrier start(clients + 1);
  std::atomic<bool> stop{false};
  auto client = [&](int c) {
    ClientLog& log = logs[static_cast<std::size_t>(c)];
    ClientPool& pool = pools[static_cast<std::size_t>(c)];
    apgre::Xoshiro256 rng(apgre::hash_combine64(seed, 100 + c));
    start.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      Op op = pick_op(rng);
      // A local batch stays inside the largest block or inside the small
      // blocks, a quarter of them the former, so its cost is one of two
      // modes with fixed shares.
      std::vector<OwnedEdge>* chords =
          rng.bernoulli(0.25) ? &pool.core_chords : &pool.chords;
      if (chords->empty()) {
        chords = chords == &pool.chords ? &pool.core_chords : &pool.chords;
      }
      if (op == Op::kLocalBatch && chords->empty()) op = Op::kTopK;
      if (op == Op::kStructural && pool.structural.empty()) op = Op::kTopK;

      apgre::Request req;
      req.graph = kGraphName;
      std::vector<OwnedEdge*> touched;
      if (op == Op::kTopK) {
        req.kind = apgre::RequestKind::kTopK;
      } else if (op == Op::kSolve) {
        req.kind = apgre::RequestKind::kSolve;
      } else {
        req.kind = apgre::RequestKind::kUpdateBatch;
        if (op == Op::kStructural) {
          touched.push_back(&pool.structural[rng.bounded(pool.structural.size())]);
        } else {
          const std::size_t count = 1 + rng.bounded(3);
          for (std::size_t i = 0; i < count; ++i) {
            OwnedEdge* e = &(*chords)[rng.bounded(chords->size())];
            if (std::find(touched.begin(), touched.end(), e) == touched.end()) {
              touched.push_back(e);
            }
          }
        }
        for (const OwnedEdge* e : touched) req.update.ops.push_back(e->toggle_op());
      }

      const bool read = op == Op::kTopK || op == Op::kSolve;
      Timer timer;
      const apgre::Response resp = [&] {
        apgre::TraceSpan span(read ? "perfbench/service.read"
                                   : "perfbench/service.update");
        return service.submit(std::move(req)).get();
      }();
      const double latency = timer.seconds();
      if (!resp.status.ok()) {
        log.outcome.fail("service request failed: " + resp.status.message);
        continue;
      }
      log.outcome.pass();
      if (read) {
        log.overhead.push_back(std::max(0.0, latency - resp.seconds));
      } else {
        log.update.push_back(latency);
        for (OwnedEdge* e : touched) e->present = !e->present;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  start.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();

  for (ClientLog& log : logs) {
    r.service_overhead.insert(r.service_overhead.end(), log.overhead.begin(),
                              log.overhead.end());
    r.update.insert(r.update.end(), log.update.begin(), log.update.end());
    r.outcome.merge(log.outcome);
  }
  const apgre::ServiceStats stats = service.stats();
  r.hit_rate = stats.hit_rate();
  const double sessions =
      static_cast<double>(stats.local_recomputes + stats.full_invalidations);
  r.local_recompute_frac =
      sessions > 0 ? static_cast<double>(stats.local_recomputes) / sessions : 0;
  r.batch_downgrade_frac =
      stats.batch_updates > 0 ? static_cast<double>(stats.batch_downgrades) /
                                    static_cast<double>(stats.batch_updates)
                              : 0.0;

  // Unmeasured: every owner reverts its edges, so the final snapshot must
  // equal `g`, and a solve through the service must match g's oracle.
  apgre::Request revert;
  revert.kind = apgre::RequestKind::kUpdateBatch;
  revert.graph = kGraphName;
  for (const ClientPool& pool : pools) {
    for (const auto* list : {&pool.core_chords, &pool.chords, &pool.structural}) {
      for (const OwnedEdge& e : *list) {
        if (e.present != apgre::has_arc(g, e.u, e.v)) {
          revert.update.ops.push_back(e.toggle_op());
        }
      }
    }
  }
  if (!revert.update.ops.empty()) {
    const apgre::Response resp = service.submit(std::move(revert)).get();
    if (!resp.status.ok()) r.outcome.fail("revert: " + resp.status.message);
  }
  const auto snapshot = service.snapshot(kGraphName);
  if (snapshot != nullptr && *snapshot == g) {
    r.outcome.pass();
  } else {
    r.outcome.fail("service: final edge set differs from the owners' record");
  }
  apgre::Request solve;
  solve.graph = kGraphName;
  apgre::Response resp = service.submit(solve).get();
  if (!resp.status.ok()) {
    r.outcome.fail("final solve: " + resp.status.message);
  } else {
    check_scores(oracle, std::move(resp.scores), "service final solve", perturb,
                 r.outcome);
  }
  return r;
}

GraphSpec workload_graph(const Args& args) {
  return args.workload == "solve-road" ? road_graph(args.seed, args.smoke)
                                       : fringe_graph(args.seed, args.smoke);
}

double setup_seconds(const Args& args) {
  Timer timer;
  const GraphSpec spec = workload_graph(args);
  const apgre::BcResult warm = apgre::betweenness(spec.graph);
  const double seconds = timer.seconds();
  return warm.status.ok() ? seconds : -1.0;
}

}  // namespace perfbench
