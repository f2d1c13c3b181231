// The traced run: the workload's own loop with the benchmark's spans around
// every request, then one probe per layer call on the probe graph, each
// wrapped in a `perfbench/<layer>.<call>` span. The spans are drained
// together with the ones the library emits (apgre/*, bcc/*, graph/*,
// sched/*, service/*), turned into per-layer self time, and written as a
// Chrome trace-event file.
#include <algorithm>
#include <fstream>
#include <map>

#include "bc/bc.hpp"
#include "bc/incremental.hpp"
#include "bcc/bicomp.hpp"
#include "bcc/parallel_bicomp.hpp"
#include "bcc/partition.hpp"
#include "bcc/queries.hpp"
#include "bcc/reach.hpp"
#include "graph/transform.hpp"
#include "graph/update.hpp"
#include "perfbench.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using apgre::JsonValue;
using apgre::SpanRecord;
using apgre::Timer;

constexpr const char* kLayers[] = {"graph", "bcc", "bc", "sched", "service"};
constexpr std::size_t kMaxExportedSpans = 200000;

// Layer of a span: library spans by their prefix, the benchmark's own
// `perfbench/<layer>.<call>` spans by the layer they wrap. The reference
// solvers (the serial oracle, `coarse`) are the benchmark's checks, not the
// system under test, so they count as "ref", outside every layer.
std::string layer_of(const std::string& name) {
  if (name == "bc/serial" || name == "bc/coarse") return "ref";
  const std::size_t slash = name.find('/');
  const std::string prefix = name.substr(0, slash);
  if (prefix == "apgre") return "bc";
  if (prefix != "perfbench" || slash == std::string::npos) return prefix;
  const std::string call = name.substr(slash + 1);
  return call.substr(0, call.find('.'));
}

// Self time per layer: each span's duration minus the spans nested directly
// inside it on the same thread (spans are RAII, so per-thread intervals
// nest by depth).
std::map<std::string, double> self_seconds(std::vector<SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_seconds != b.start_seconds) return a.start_seconds < b.start_seconds;
    return a.depth < b.depth;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].thread != spans[i].thread ||
            spans[stack.back()].depth >= spans[i].depth)) {
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += spans[i].elapsed_seconds();
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[layer_of(spans[i].name)] +=
        std::max(0.0, spans[i].elapsed_seconds() - child[i]);
  }
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const Args& args, Outcome& outcome) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  JsonValue::Object meta;
  meta["workload"] = JsonValue(args.workload);
  meta["seed"] = JsonValue(args.seed);
  meta["revision"] = JsonValue(args.revision);
  meta["threads"] = JsonValue(thread_budget());
  out << JsonValue(std::move(meta)).dump() << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    JsonValue::Object e;
    e["name"] = JsonValue(s.name);
    e["cat"] = JsonValue(layer_of(s.name));
    e["ph"] = JsonValue("X");
    e["ts"] = JsonValue(s.start_seconds * 1e6);
    e["dur"] = JsonValue(s.elapsed_seconds() * 1e6);
    e["pid"] = JsonValue(1);
    e["tid"] = JsonValue(s.thread);
    if (i != 0) out << ',';
    out << JsonValue(std::move(e)).dump();
  }
  out << "]}\n";
  if (out) {
    outcome.pass();
  } else {
    outcome.fail("could not write trace " + path);
  }
}

// Median seconds of `reps` calls, each inside a benchmark span.
template <class F>
double timed(int reps, const char* span, F&& call) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    {
      apgre::TraceSpan s(span);
      call();
    }
    seconds.push_back(timer.seconds());
  }
  return median(seconds);
}

std::uint64_t counter(const char* name) {
  return apgre::metrics().counter(name).value();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One probe per layer call on `g`; `oracle` is g's serial Brandes.
void probe_layers(const Args& args, const CsrGraph& g,
                  const std::vector<double>& oracle, bool& perturb,
                  Report& report) {
  const int reps = args.smoke ? 2 : 5;
  Outcome& outcome = report.outcome;

  // graph
  apgre::PeelResult peel;
  report.add("graph.peel_s",
             timed(reps, "perfbench/graph.two_core_peel",
                   [&] { peel = apgre::two_core_peel(g); }),
             "s");
  report.add("graph.core_fraction", peel.core_fraction(), "ratio");

  // bcc
  apgre::BiconnectedComponents serial, parallel;
  report.add("bcc.bicomp_s",
             timed(reps, "perfbench/bcc.biconnected_components",
                   [&] { serial = apgre::biconnected_components(g); }),
             "s");
  report.add("bcc.parallel_bicomp_s",
             timed(reps, "perfbench/bcc.parallel_biconnected_components",
                   [&] { parallel = apgre::parallel_biconnected_components(g); }),
             "s");
  apgre::canonicalize_blocks(serial);
  if (serial.component_vertices == parallel.component_vertices) {
    outcome.pass();
  } else {
    outcome.fail("parallel and serial biconnected components differ");
  }
  apgre::PartitionOptions no_reach;
  no_reach.compute_reach = false;
  apgre::Decomposition dec;
  report.add("bcc.decompose_s",
             timed(reps, "perfbench/bcc.decompose",
                   [&] { dec = apgre::decompose(g, no_reach); }),
             "s");
  report.add("bcc.reach_s",
             timed(reps, "perfbench/bcc.compute_reach_counts",
                   [&] {
                     apgre::compute_reach_counts(g, dec,
                                                 apgre::ReachMethod::kAuto);
                   }),
             "s");
  report.add("bcc.blocks", static_cast<double>(serial.num_components), "count");
  report.add("bcc.subgraphs", static_cast<double>(dec.subgraphs.size()), "count");
  const auto work = dec.work_model(g.num_arcs());
  report.add("bc.work_ratio", ratio(work.apgre, work.brandes), "ratio");

  const std::vector<ClientPool> pools = make_pools(g, 1, 8, 2, args.seed);
  const ClientPool& pool = pools[0];
  const std::vector<OwnedEdge>& chords =
      pool.chords.empty() ? pool.core_chords : pool.chords;
  apgre::UpdateRequest local;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, chords.size()); ++i) {
    local.ops.push_back(chords[i].toggle_op());
  }
  const apgre::BlockCutQueries queries(g);
  const std::vector<apgre::EdgeOp> survivors =
      apgre::coalesce_batch(g, local.ops).survivors;
  apgre::BatchClassification verdict;
  report.add("bcc.classify_batch_s",
             timed(reps * 4, "perfbench/bcc.classify_batch",
                   [&] { verdict = queries.classify_batch(survivors); }),
             "s");
  if (!local.ops.empty() && !verdict.structural) {
    outcome.pass();
  } else {
    outcome.fail("chord batch did not classify local");
  }

  // bc: warm scoring on a cached decomposition.
  apgre::Solver solver(g);
  (void)solver.solve();
  std::vector<double> warm_scores;
  report.add("bc.score_s",
             timed(reps, "perfbench/bc.solver_solve_warm",
                   [&] { warm_scores = solver.solve().scores; }),
             "s");
  check_scores(oracle, warm_scores, "warm solve", perturb, outcome);

  // Cold solves: APGRE next to the coarse baseline at the same thread
  // budget, alternating; the scheduler figures come from the APGRE runs.
  apgre::BcOptions coarse;
  coarse.algorithm = apgre::Algorithm::kCoarse;
  coarse.threads = thread_budget();
  std::vector<double> apgre_s, coarse_s, idle_frac, tasks, fine, batch_tasks;
  const std::uint64_t arcs0 = counter("bc.apgre.traversed_arcs");
  std::uint64_t failed_steals = 0, sched_tasks = 0;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t f0 = counter("sched.failed_steals");
    const std::uint64_t t0 = counter("sched.tasks");
    Timer a;
    apgre::BcResult cold = [&] {
      apgre::TraceSpan s("perfbench/bc.betweenness_cold");
      return apgre::betweenness(g);
    }();
    apgre_s.push_back(a.seconds());
    failed_steals += counter("sched.failed_steals") - f0;
    sched_tasks += counter("sched.tasks") - t0;
    const apgre::ApgreStats& st = cold.apgre_stats;
    idle_frac.push_back(ratio(st.sched_idle_seconds,
                              thread_budget() * st.rest_bc_seconds));
    tasks.push_back(static_cast<double>(st.sched_tasks));
    fine.push_back(static_cast<double>(st.num_fine_subgraphs));
    batch_tasks.push_back(static_cast<double>(st.num_batch_tasks));
    check_scores(oracle, std::move(cold.scores), "cold solve", perturb, outcome);

    Timer c;
    apgre::BcResult ref = [&] {
      apgre::TraceSpan s("perfbench/ref.coarse");
      return apgre::betweenness(g, coarse);
    }();
    coarse_s.push_back(c.seconds());
    check_scores(oracle, std::move(ref.scores), "coarse", perturb, outcome);
  }
  report.add("bc.traversed_arcs",
             static_cast<double>(counter("bc.apgre.traversed_arcs") - arcs0) / reps,
             "arcs");
  report.add("sched.idle_frac", median(idle_frac), "ratio");
  report.add("sched.failed_steals_per_task",
             ratio(static_cast<double>(failed_steals), static_cast<double>(sched_tasks)),
             "ratio");
  report.add("sched.tasks", median(tasks), "count");
  report.add("sched.fine_subgraphs", median(fine), "count");
  report.add("sched.batch_tasks", median(batch_tasks), "count");
  report.add("ref.coarse_s", median(coarse_s), "s");
  report.add("ref.apgre_s", median(apgre_s), "s");
  report.add("ref.apgre_over_coarse", ratio(median(apgre_s), median(coarse_s)),
             "ratio");

  // bc: the incremental engine, split by outcome. Every toggle is undone
  // by the next one, so the engine ends on `g` and must match its oracle.
  apgre::IncrementalBc engine{apgre::CsrGraph(g)};
  apgre::UpdateRequest structural;
  if (!pool.structural.empty()) {
    structural.ops.push_back(pool.structural[0].toggle_op());
  }
  std::vector<double> local_s, structural_s;
  auto apply = [&](apgre::UpdateRequest& batch) {
    if (batch.ops.empty()) return;
    Timer t;
    apgre::BatchStats stats;
    {
      apgre::TraceSpan s("perfbench/bc.incremental_apply_batch");
      stats = engine.apply_batch(batch);
    }
    (stats.batch_downgrades != 0 ? structural_s : local_s).push_back(t.seconds());
    for (apgre::EdgeOp& op : batch.ops) op.insert = !op.insert;
  };
  for (int i = 0; i < 2 * reps; ++i) {
    apply(local);
    if (i < 4) apply(structural);
  }
  report.add("bc.local_batch_s", median(local_s), "s");
  report.add("bc.structural_resolve_s", median(structural_s), "s");
  if (engine.graph() == g) {
    check_scores(oracle, engine.scores(), "incremental engine", perturb, outcome);
  } else {
    outcome.fail("incremental engine did not return to its start graph");
  }
}

}  // namespace

void add_layer_metrics(const Args& args, const CsrGraph& probe, bool& perturb,
                       Report& report) {
  // Drained at phase boundaries, where no span is open, so the self time
  // of each batch is complete; the export keeps the first spans only.
  std::map<std::string, double> self;
  std::vector<SpanRecord> exported;
  auto drain = [&] {
    const std::vector<SpanRecord> spans = apgre::collect_spans();
    for (const auto& [layer, seconds] : self_seconds(spans)) self[layer] += seconds;
    const std::size_t room =
        kMaxExportedSpans - std::min(kMaxExportedSpans, exported.size());
    exported.insert(exported.end(), spans.begin(),
                    spans.begin() + static_cast<std::ptrdiff_t>(std::min(room, spans.size())));
  };
  apgre::clear_spans();

  // Reference: the serial Brandes oracle of the probe graph.
  Timer serial_timer;
  const std::vector<double> oracle = [&] {
    apgre::TraceSpan s("perfbench/ref.serial");
    return serial_oracle(probe);
  }();
  report.add("ref.serial_s", serial_timer.seconds(), "s");
  drain();

  // The workload's own loop, traced. Solve tails are too unsteady on a
  // shared host to bound (perfbench/README.md), so reported here only.
  LoopResult loop = run_solve_loop(probe, oracle, args.seconds * 0.35, perturb);
  report.outcome.merge(loop.outcome);
  drain();
  report.add("trace.solve_p50_norm", normalized(loop.solve, loop.probe, 10,
                        [](std::vector<double> v) { return median(std::move(v)); }),
             "ratio");
  report.add("trace.solve_p50_s", percentile(loop.solve, 50), "s");
  report.add("trace.solve_p90_s", percentile(loop.solve, 90), "s");
  report.add("trace.solve_p99_s", percentile(loop.solve, 99), "s");

  probe_layers(args, probe, oracle, perturb, report);
  drain();

  // service: a mixed read/write closed loop on the probe graph.
  loop = run_service_loop(probe, oracle, args.seconds * 0.2, args.seed, perturb);
  report.outcome.merge(loop.outcome);
  drain();
  report.add("trace.update_p50_s", percentile(loop.update, 50), "s");
  report.add("trace.update_p99_s", percentile(loop.update, 99), "s");
  report.add("service.overhead_p50_s", percentile(loop.service_overhead, 50), "s");
  report.add("service.hit_rate", loop.hit_rate, "ratio");
  report.add("service.local_recompute_frac", loop.local_recompute_frac, "ratio");
  report.add("service.batch_downgrade_frac", loop.batch_downgrade_frac, "ratio");

  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.add(std::string("layer.") + layer + ".self_s",
               it == self.end() ? 0.0 : it->second, "s");
  }
  if (!args.trace_out.empty()) {
    write_chrome_trace(args.trace_out, exported, args, report.outcome);
  }
}

}  // namespace perfbench
