// perfbench — the repository benchmark (perfbench/README.md).
//
//   perfbench --workload solve-road|solve-fringe --seed N
//             --seconds S --trace 0|1 [--smoke] [--perturb]
//             [--trace-out FILE] [--revision REV]
//
// Prints a host fingerprint line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit 0 when every
// exactness check passed, 1 when one failed, 2 on a usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace perfbench {
namespace {

using apgre::JsonValue;

constexpr const char* kWorkloads[] = {"solve-road", "solve-fringe"};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload solve-road|solve-fringe --seed N "
               "--seconds S --trace 0|1 [--smoke] [--perturb] "
               "[--trace-out FILE] [--revision REV]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        args.trace = t == "1";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--perturb") {
        args.perturb = true;
      } else if (flag == "--trace-out") {
        args.trace_out = value();
      } else if (flag == "--revision") {
        args.revision = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.trace != apgre::trace_enabled()) {
    usage(std::string("this build has APGRE_TRACE ") +
          (apgre::trace_enabled() ? "on; run it with --trace 1"
                                  : "off; run it with --trace 0"));
  }
  return args;
}

void print_host(const Args& args, const GraphSpec& spec) {
  JsonValue::Object host;
  host["nproc"] = JsonValue(static_cast<int>(std::thread::hardware_concurrency()));
  host["threads"] = JsonValue(thread_budget());
  host["compiler"] = JsonValue(PERFBENCH_COMPILER);
  host["build_type"] = JsonValue(PERFBENCH_BUILD_TYPE);
  host["apgre_trace"] = JsonValue(apgre::trace_enabled() ? "on" : "off");
  host["revision"] = JsonValue(args.revision);
  host["workload"] = JsonValue(args.workload);
  host["seed"] = JsonValue(args.seed);
  host["seconds"] = JsonValue(args.seconds);
  host["input"] = JsonValue(spec.name + ": " + spec.params);
  JsonValue::Object line;
  line["host"] = JsonValue(std::move(host));
  std::cout << JsonValue(std::move(line)).dump() << std::endl;
}

// Windows of consecutive iterations for the normalized latencies: about
// one second each in a 30 s run, well inside a host speed phase, and enough
// of them that a burst of contention moves only the few it overlaps.
constexpr std::size_t kWindows = 30;

// `rss_before_mb` is the process's peak resident set before the workload
// generated its first graph; peak_rss_mb is the growth of the peak over
// the run, so the binary and runtime baseline does not hide the
// library's working set.
Report untraced_run(const Args& args, const CsrGraph& g, double rss_before_mb) {
  Report report;
  // kSetups cold set-ups (graph generated and solved once each), spread
  // evenly over the run so that their median spans the host's speed phases
  // as the solves do; the first also starts the scheduler's pool, which the
  // median leaves out.
  constexpr int kSetups = 31;
  std::vector<double> setups;
  auto setup_once = [&] {
    const double s = setup_seconds(args);
    if (s < 0.0) {
      report.outcome.fail("set-up failed");
    } else {
      report.outcome.pass();
      setups.push_back(s);
    }
  };
  setup_once();
  const std::vector<double> oracle = serial_oracle(g);
  bool perturb = args.perturb;
  int done = 1;
  LoopResult r = run_solve_loop(g, oracle, args.seconds, perturb, [&](double elapsed) {
    if (done < kSetups && elapsed >= args.seconds * done / kSetups) {
      setup_once();
      ++done;
    }
  });
  while (done++ < kSetups) setup_once();
  report.outcome.merge(r.outcome);
  const double rss_after_mb = peak_rss_mb();

  auto p50 = [](std::vector<double> v) { return percentile(std::move(v), 50); };
  auto p90 = [](std::vector<double> v) { return percentile(std::move(v), 90); };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  report.add("setup_s", median(setups), "s");
  report.add("solve_p50_norm", normalized(r.solve, r.probe, kWindows, p50), "ratio");
  report.add("solve_p90_norm", normalized(r.solve, r.probe, kWindows, p90), "ratio");
  report.add("throughput_norm", 1.0 / normalized(r.solve, r.probe, kWindows, mean),
             "ratio");
  report.add("peak_rss_mb", rss_after_mb - rss_before_mb, "MiB");

  // The raw figures, in seconds: they move with the host's speed phases.
  double busy = 0.0;
  for (const double s : r.solve) busy += s;
  JsonValue::Object counts;
  counts["solves"] = JsonValue(static_cast<std::uint64_t>(r.solve.size()));
  counts["solve_p50_s"] = JsonValue(percentile(r.solve, 50));
  counts["solve_p90_s"] = JsonValue(percentile(r.solve, 90));
  counts["throughput_rps"] = JsonValue(static_cast<double>(r.solve.size()) / busy);
  counts["probe_p50_s"] = JsonValue(median(r.probe));
  counts["rss_before_mb"] = JsonValue(rss_before_mb);
  counts["rss_peak_mb"] = JsonValue(rss_after_mb);
  counts["error_rate"] = JsonValue(
      report.outcome.attempted == 0
          ? 0.0
          : static_cast<double>(report.outcome.failed) /
                static_cast<double>(report.outcome.attempted));
  JsonValue::Object line;
  line["samples"] = JsonValue(std::move(counts));
  std::cout << JsonValue(std::move(line)).dump() << std::endl;
  return report;
}

void print_result(const Report& report) {
  for (const std::string& m : report.outcome.messages) {
    std::cerr << "perfbench: FAIL " << m << "\n";
  }
  JsonValue::Object metrics;
  for (const Metric& m : report.metrics) {
    JsonValue::Object entry;
    entry["value"] = JsonValue(m.value);
    entry["unit"] = JsonValue(m.unit);
    metrics[m.name] = JsonValue(std::move(entry));
  }
  JsonValue::Object line;
  line["correct"] = JsonValue(report.outcome.failed == 0);
  line["attempted"] = JsonValue(report.outcome.attempted);
  line["failed"] = JsonValue(report.outcome.failed);
  line["metrics"] = JsonValue(std::move(metrics));
  std::cout << JsonValue(std::move(line)).dump() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const double rss_before_mb = peak_rss_mb();
  try {
    const GraphSpec spec = workload_graph(args);
    print_host(args, spec);
    Report report;
    if (args.trace) {
      bool perturb = args.perturb;
      add_layer_metrics(args, spec.graph, perturb, report);
    } else {
      report = untraced_run(args, spec.graph, rss_before_mb);
    }
    print_result(report);
    return report.outcome.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
