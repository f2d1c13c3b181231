// End-to-end tests of the bench_regress harness: spawn the real binary
// (path injected by CMake), check the JSON report schema and the exit-code
// contract of the --baseline gate (0 clean, 1 regression, 2 malformed).
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.hpp"

#ifndef APGRE_BENCH_REGRESS_PATH
#error "APGRE_BENCH_REGRESS_PATH must be defined by the build"
#endif

namespace apgre {
namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_tool(const std::string& args) {
  const std::string command =
      std::string(APGRE_BENCH_REGRESS_PATH) + " " + args + " 2>&1";
  std::array<char, 4096> buffer{};
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// A fast measurement everybody reuses: 1 rep, no warmup, two algorithms,
/// the seeded corpus only.
std::string fast_flags() {
  return "--repeat 1 --warmup 0 --algo-set serial,apgre --seed 3";
}

class BenchRegressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    report_path_ = ::testing::TempDir() + "/bench_report_" +
                   std::to_string(static_cast<long>(getpid())) + ".json";
  }
  void TearDown() override { std::remove(report_path_.c_str()); }

  JsonValue read_report() const {
    std::ifstream in(report_path_);
    std::stringstream buf;
    buf << in.rdbuf();
    return JsonValue::parse(buf.str());
  }

  void write_file(const std::string& text) const {
    std::ofstream out(report_path_);
    out << text;
  }

  std::string report_path_;
};

TEST_F(BenchRegressTest, HelpExitsZero) {
  const CommandResult r = run_tool("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("--baseline"), std::string::npos);
}

TEST_F(BenchRegressTest, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_tool("--frobnicate").exit_code, 2);
  EXPECT_EQ(run_tool("--graphs nonsense").exit_code, 2);
  EXPECT_EQ(run_tool("--repeat 0").exit_code, 2);
}

TEST_F(BenchRegressTest, ReportMatchesSchema) {
  const CommandResult r =
      run_tool(fast_flags() + " --revision testrev --out " + report_path_);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const JsonValue report = read_report();
  EXPECT_EQ(report.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(report.at("revision").as_string(), "testrev");
  EXPECT_TRUE(report.at("host").is_object());
  EXPECT_GE(report.at("host").at("pool_workers").as_double(), 1.0);
  EXPECT_EQ(report.at("config").at("repeat").as_double(), 1.0);

  const auto& results = report.at("results").as_array();
  ASSERT_FALSE(results.empty());
  bool saw_skewed = false;
  for (const JsonValue& result : results) {
    // --graphs corpus, plus the skewed scheduler-stress workload that
    // rides along in every set.
    const std::string graph = result.at("graph").as_string();
    if (graph == "workload/skewed*") saw_skewed = true;
    EXPECT_TRUE(graph.find("corpus/") != std::string::npos ||
                graph == "workload/skewed*")
        << graph;
    EXPECT_GT(result.at("vertices").as_double(), 0.0);
    const auto& algorithms = result.at("algorithms").as_object();
    ASSERT_EQ(algorithms.size(), 2u);
    for (const auto& [name, stats] : algorithms) {
      EXPECT_TRUE(name == "serial" || name == "apgre") << name;
      EXPECT_GE(stats.at("seconds_median").as_double(), 0.0);
      EXPECT_GE(stats.at("seconds_p90").as_double(),
                stats.at("seconds_min").as_double());
      EXPECT_GT(stats.at("mteps_median").as_double(), 0.0);
      EXPECT_TRUE(stats.at("metrics").is_object());
      EXPECT_TRUE(stats.at("spans").is_object());
      // The kernels report into the registry under their own prefix, and
      // only what this measurement wrote is in its snapshot: the serial
      // entry carries no APGRE counters left registered by earlier runs.
      const JsonValue& metrics = stats.at("metrics");
      const std::string prefix = name == "serial" ? "bc.serial." : "bc.apgre.";
      ASSERT_TRUE(metrics.contains(prefix + "traversed_arcs")) << name;
      EXPECT_GT(metrics.at(prefix + "traversed_arcs").as_double(), 0.0)
          << name;
      if (name == "serial") {
        for (const auto& [key, value] : metrics.as_object()) {
          EXPECT_NE(key.rfind("bc.apgre.", 0), 0u) << key;
          EXPECT_NE(key.rfind("apgre.", 0), 0u) << key;
        }
      }
    }
  }
  EXPECT_TRUE(saw_skewed) << "skewed scheduler workload missing from report";
}

// With both APGRE and the source-parallel baseline in the set, every graph
// carries their median ratio, and the progress line prints it.
TEST_F(BenchRegressTest, ReportsApgreOverCoarse) {
  const CommandResult r =
      run_tool("--repeat 1 --warmup 0 --algo-set coarse,apgre --seed 3 "
               "--threads 2 --out " +
               report_path_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("apgre/coarse"), std::string::npos) << r.output;
  const JsonValue report = read_report();
  for (const JsonValue& result : report.at("results").as_array()) {
    SCOPED_TRACE(result.at("graph").as_string());
    EXPECT_GT(result.at("apgre_over_coarse").as_double(), 0.0);
  }
}

TEST_F(BenchRegressTest, ServiceWorkloadReportsThroughput) {
  const CommandResult r = run_tool(
      "--workload service --clients 2 --requests 5 --seed 3 --threads 2 "
      "--out " +
      report_path_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("service workload:"), std::string::npos) << r.output;

  const JsonValue report = read_report();
  EXPECT_EQ(report.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(report.at("config").at("workload").as_string(), "service");

  const JsonValue& service = report.at("service");
  EXPECT_EQ(service.at("clients").as_double(), 2.0);
  EXPECT_EQ(service.at("requests_per_client").as_double(), 5.0);
  EXPECT_EQ(service.at("requests").as_double(), 10.0);
  EXPECT_GT(service.at("requests_per_second").as_double(), 0.0);
  const double hit_rate = service.at("hit_rate").as_double();
  EXPECT_GE(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
  const JsonValue& counters = service.at("counters");
  EXPECT_TRUE(counters.contains("session_hits"));
  EXPECT_TRUE(counters.contains("session_misses"));
  EXPECT_TRUE(counters.contains("updates_local"));
  EXPECT_TRUE(counters.contains("updates_structural"));
  // The kernels benchmark section is skipped in service mode.
  EXPECT_TRUE(report.at("results").as_array().empty());
}

TEST_F(BenchRegressTest, ServiceWorkloadFlagValidation) {
  EXPECT_EQ(run_tool("--workload nonsense").exit_code, 2);
  EXPECT_EQ(run_tool("--workload service --clients 0").exit_code, 2);
  EXPECT_EQ(run_tool("--workload service --requests 0").exit_code, 2);
}

TEST_F(BenchRegressTest, ServiceParallelWorkloadReportsLatencyPercentiles) {
  const CommandResult r = run_tool(
      "--workload service_parallel --clients 2 --requests 6 --seed 3 "
      "--threads 2 --out " +
      report_path_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("service_parallel workload:"), std::string::npos)
      << r.output;

  const JsonValue report = read_report();
  EXPECT_EQ(report.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(report.at("config").at("workload").as_string(), "service_parallel");

  const JsonValue& service = report.at("service");
  EXPECT_EQ(service.at("clients").as_double(), 2.0);
  EXPECT_EQ(service.at("requests_per_client").as_double(), 6.0);
  // Solves never fail on registered graphs; every request reports latency.
  EXPECT_EQ(service.at("failed").as_double(), 0.0);
  EXPECT_EQ(service.at("requests").as_double(), 12.0);
  EXPECT_GT(service.at("requests_per_second").as_double(), 0.0);
  EXPECT_GT(service.at("solve_seconds_p50").as_double(), 0.0);
  EXPECT_GE(service.at("solve_seconds_p90").as_double(),
            service.at("solve_seconds_p50").as_double());
  // Per-algorithm breakdown carries the same percentile fields.
  for (const auto& [name, entry] : service.at("algorithms").as_object()) {
    EXPECT_GT(entry.at("requests").as_double(), 0.0) << name;
    EXPECT_GE(entry.at("solve_seconds_p90").as_double(),
              entry.at("solve_seconds_p50").as_double())
        << name;
  }
  EXPECT_TRUE(report.at("results").as_array().empty());
}

TEST_F(BenchRegressTest, DecomposeWorkloadGatesExactnessAndReportsThroughput) {
  const CommandResult r = run_tool(
      "--workload decompose --repeat 2 --scale 0.05 --seed 3 --out " +
      report_path_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("decompose workload:"), std::string::npos)
      << r.output;

  const JsonValue report = read_report();
  EXPECT_EQ(report.at("schema_version").as_double(), 1.0);
  EXPECT_EQ(report.at("config").at("workload").as_string(), "decompose");

  const JsonValue& decompose = report.at("decompose");
  EXPECT_GT(decompose.at("graph_vertices").as_double(), 0.0);
  // The fringe-heavy geometry guarantees thousands of bridge blocks.
  EXPECT_GT(decompose.at("blocks").as_double(), 100.0);
  EXPECT_EQ(decompose.at("reps").as_double(), 2.0);
  EXPECT_GT(decompose.at("serial_seconds_median").as_double(), 0.0);
  EXPECT_GT(decompose.at("parallel_seconds_median").as_double(), 0.0);
  EXPECT_GT(decompose.at("serial_blocks_per_second").as_double(), 0.0);
  EXPECT_GT(decompose.at("parallel_blocks_per_second").as_double(), 0.0);
  EXPECT_GT(decompose.at("speedup").as_double(), 0.0);
  // The kernels benchmark section is skipped in decompose mode.
  EXPECT_TRUE(report.at("results").as_array().empty());
}

TEST_F(BenchRegressTest, SelfBaselineComparesClean) {
  ASSERT_EQ(run_tool(fast_flags() + " --out " + report_path_).exit_code, 0);
  // Identical build, generous threshold: the gate must pass.
  const CommandResult r = run_tool(fast_flags() + " --threshold 1000 --baseline " +
                                   report_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 regressions"), std::string::npos) << r.output;
}

TEST_F(BenchRegressTest, RegressionExitsOne) {
  ASSERT_EQ(run_tool(fast_flags() + " --out " + report_path_).exit_code, 0);
  // Shrink every baseline timing to ~zero: everything now "regresses".
  JsonValue report = read_report();
  for (JsonValue& result : report["results"].as_array()) {
    for (auto& [name, stats] : result["algorithms"].as_object()) {
      stats["seconds_min"] = JsonValue(1e-9);
    }
  }
  write_file(report.dump(2));
  const CommandResult r =
      run_tool(fast_flags() + " --min-delta 0 --baseline " + report_path_);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("REGRESSION"), std::string::npos);
}

TEST_F(BenchRegressTest, MalformedBaselineExitsTwo) {
  write_file("this is not json");
  EXPECT_EQ(run_tool(fast_flags() + " --baseline " + report_path_).exit_code, 2);
}

TEST_F(BenchRegressTest, WrongSchemaVersionExitsTwo) {
  write_file("{\"schema_version\": 999, \"results\": []}");
  EXPECT_EQ(run_tool(fast_flags() + " --baseline " + report_path_).exit_code, 2);
}

TEST_F(BenchRegressTest, MissingBaselineFileExitsTwo) {
  EXPECT_EQ(
      run_tool(fast_flags() + " --baseline /nonexistent/base.json").exit_code, 2);
}

}  // namespace
}  // namespace apgre
