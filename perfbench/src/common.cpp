#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bc/bc.hpp"
#include "perfbench.hpp"
#include "support/sched/scheduler.hpp"

namespace perfbench {

void Outcome::fail(std::string message) {
  ++attempted;
  ++failed;
  if (messages.size() < 8) messages.push_back(std::move(message));
}

void Outcome::merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& m : other.messages) {
    if (messages.size() < 8) messages.push_back(m);
  }
}

void Report::add(std::string name, double value, std::string unit) {
  // JSON has no NaN or infinity; a metric that cannot be computed is a
  // benchmark bug, reported as a failed check rather than a bogus number.
  if (!std::isfinite(value)) {
    outcome.fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

int thread_budget() { return apgre::WorkStealingScheduler::shared().num_workers(); }

// VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
// of the process image before exec (the Python driver), which hides a
// working set of a few MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return std::nan("");
}

std::vector<double> serial_oracle(const CsrGraph& g) {
  apgre::BcOptions opts;
  opts.algorithm = apgre::Algorithm::kBrandesSerial;
  return apgre::betweenness(g, opts).scores;
}

bool scores_match(const std::vector<double>& expected,
                  const std::vector<double>& actual, std::string* why) {
  if (expected.size() != actual.size()) {
    *why = "length " + std::to_string(actual.size()) + " vs expected " +
           std::to_string(expected.size());
    return false;
  }
  for (std::size_t v = 0; v < expected.size(); ++v) {
    const double a = expected[v];
    const double b = actual[v];
    if (!(std::abs(a - b) <=
          1e-6 + 1e-7 * std::max(std::abs(a), std::abs(b)))) {
      *why = "vertex " + std::to_string(v) + ": " + std::to_string(b) +
             " vs expected " + std::to_string(a);
      return false;
    }
  }
  return true;
}

void check_scores(const std::vector<double>& expected,
                  std::vector<double> actual, const std::string& what,
                  bool& perturb, Outcome& outcome) {
  if (perturb && !actual.empty()) {
    actual[actual.size() / 2] += 1.0;
    perturb = false;
  }
  std::string why;
  if (scores_match(expected, actual, &why)) {
    outcome.pass();
  } else {
    outcome.fail(what + " inexact: " + why);
  }
}

}  // namespace perfbench
