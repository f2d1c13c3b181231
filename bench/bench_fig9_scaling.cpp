// Paper Figure 9: parallel scaling of every algorithm on the dblp analogue
// as the thread budget grows (1..12 in the paper, on a 6-core SMT system).
// NOTE: in this container the hardware exposes a single core, so curves
// are expected to be flat-to-declining (oversubscription); EXPERIMENTS.md
// records this substitution. The binary still demonstrates the mechanism
// and is meaningful on real multicore hardware.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace apgre;
  using namespace apgre::bench;

  const Workload w = dblp_workload(env_scale());
  const CsrGraph g = w.build();
  std::printf("Workload %s: %u vertices, %llu arcs\n", w.id.c_str(),
              g.num_vertices(), static_cast<unsigned long long>(g.num_arcs()));

  const std::vector<int> thread_counts{1, 2, 4, 8, 12};
  std::vector<std::string> header{"Algorithm"};
  for (int t : thread_counts) header.push_back(std::to_string(t) + "t");
  Table table(header);

  // Serial reference for the speedup rows.
  const auto serial = timed_run(g, Algorithm::kBrandesSerial);
  const double serial_seconds = serial ? serial->seconds : 0.0;
  std::printf("serial Brandes: %.3f s\n", serial_seconds);

  for (Algorithm a : comparison_algorithms()) {
    if (a == Algorithm::kBrandesSerial) continue;
    table.row().cell(algorithm_name(a));
    for (int threads : thread_counts) {
      BcOptions opts;
      opts.algorithm = a;
      opts.threads = threads;
      if (!run_everything() && cost_estimate(g, a) > 6e9) {
        table.dash();
        continue;
      }
      const BcResult r = betweenness(g, opts);
      table.cell(serial_seconds > 0.0 ? serial_seconds / r.seconds : 0.0, 2);
      std::fflush(stdout);
    }
  }
  print_table("Figure 9: speedup over serial vs thread budget (dblp analogue)",
              table);
  std::printf("(single-core container: oversubscribed threads cannot speed up;"
              " shape check applies to the 1t column)\n");
  return 0;
}
