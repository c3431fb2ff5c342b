// Self-tests of the benchmark's own plumbing: the percentile rule, due-time
// latency under a stall, self-time subtraction, the reference gate, and
// agreement between the metrics the program reports and BENCHMARK.json.
// The workload tests run a tiny configuration of each workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fuzzydb::Result;
using std::chrono::milliseconds;

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({}, 90), 0);
  EXPECT_EQ(Percentile({7}, 90), 7);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(99), 50);
  EXPECT_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndSorted) {
  const auto a = PoissonOffsets(50.0, 2.0, 7);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a, PoissonOffsets(50.0, 2.0, 7));
  EXPECT_NE(a, PoissonOffsets(50.0, 2.0, 8));
}

// A stall in one request must show as latency of the requests due during
// it: they are issued late, and their latency counts from when they were
// due (no coordinated omission).
TEST(OpenLoop, StallIsChargedFromDueTime) {
  const std::vector<Clock::duration> offsets = {
      milliseconds(0), milliseconds(10), milliseconds(20), milliseconds(30),
      milliseconds(200)};
  std::vector<double> latency(offsets.size());
  const Clock::time_point start = Clock::now() + milliseconds(5);
  const std::vector<double> lag = RunSchedule(
      offsets, start,
      [&](size_t i, Clock::time_point due) {
        if (i == 0) std::this_thread::sleep_for(milliseconds(100));
        latency[i] = Ms(Clock::now() - due);
      },
      [] {});
  EXPECT_GE(latency[0], 100.0);
  EXPECT_GE(latency[1], 89.0);
  EXPECT_GE(latency[2], 79.0);
  EXPECT_GE(latency[3], 69.0);
  EXPECT_GE(lag[3], 69.0);
  EXPECT_LT(latency[4], 50.0);  // due after the stall: on time again
  EXPECT_LT(lag[0], 50.0);
}

TEST(OpenLoop, BacklogRatio) {
  std::vector<double> steady(100, 1.0), growing;
  for (int i = 0; i < 100; ++i) growing.push_back(1.0 + i);
  EXPECT_DOUBLE_EQ(BacklogRatio(steady), 1.0);
  EXPECT_GT(BacklogRatio(growing), 10.0);
  EXPECT_EQ(BacklogRatio({1, 2, 3}), 0.0);
}

TEST(Trace, SelfTimeSubtractsUnionOfChildren) {
  const Clock::time_point t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + milliseconds(ms); };
  Tracer tracer;
  const int64_t root = tracer.Record("root", -1, 1, at(0), at(100));
  const int64_t a = tracer.Record("child", root, 1, at(10), at(30));
  tracer.Record("child", root, 1, at(20), at(50));   // overlaps a
  tracer.Record("child", root, 1, at(90), at(120));  // clipped at 100
  tracer.Record("grandchild", a, 1, at(12), at(18));
  const std::vector<Span> spans = tracer.spans();
  const std::vector<double> self = SelfTimesMs(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_NEAR(self[0], 100.0 - 40.0 - 10.0, 1e-6);
  EXPECT_NEAR(self[1], 20.0 - 6.0, 1e-6);
  EXPECT_NEAR(self[2], 30.0, 1e-6);
  EXPECT_NEAR(self[4], 6.0, 1e-6);
  EXPECT_EQ(SelfTimesOf(spans, "child").size(), 3u);
  EXPECT_EQ(DurationsOf(spans, "root"), std::vector<double>{100.0});
}

TEST(Report, JsonLineHasTheContractKeys) {
  RunResult r;
  r.attempted = 3;
  r.failed = 1;
  r.correct = false;
  r.Add("latency_p50_ms", 1.25, "ms");
  EXPECT_EQ(ResultJson(r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
}

// Every metric the program can print is declared in BENCHMARK.json with the
// same unit, and every workload listed there is one the program runs.
TEST(Report, MetricsMatchBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in) << "BENCHMARK.json not found";
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_NE(json.find("\"name\": \"" + d.name + "\", \"unit\": \"" +
                          d.unit + "\""),
                std::string::npos)
          << d.name;
    }
  }
  // Every workload BENCHMARK.json lists is one the program runs.
  const size_t begin = json.find("\"workloads\"");
  const size_t end = json.find("]", begin);
  ASSERT_NE(begin, std::string::npos);
  size_t listed = 0;
  for (size_t at = json.find("\"name\": \"", begin); at < end;
       at = json.find("\"name\": \"", at + 1)) {
    const size_t from = at + 9;
    const std::string name = json.substr(from, json.find('"', from) - from);
    EXPECT_NE(std::find(WorkloadNames().begin(), WorkloadNames().end(), name),
              WorkloadNames().end())
        << name;
    ++listed;
  }
  EXPECT_GE(listed, 2u);
}

TEST(Report, SelectMetricsRejectsUndeclared) {
  RunResult r;
  r.Add("latency_p50_ms", 1.0, "ms");
  Result<RunResult> e2e = SelectMetrics(r, false);
  ASSERT_TRUE(e2e.ok());
  EXPECT_EQ(e2e->metrics.size(), EndToEndMetrics().size());
  EXPECT_EQ(e2e->Find("latency_p50_ms")->value, 1.0);
  EXPECT_EQ(e2e->Find("setup_s")->value, 0.0);
  r.Add("made_up", 1.0, "ms");
  EXPECT_FALSE(SelectMetrics(r, false).ok());
}

// ------------------------------------------------- tiny workload runs --

class TinyRun : public ::testing::TestWithParam<std::string> {
 protected:
  static Config Tiny(const std::string& workload) {
    Config c;
    c.workload = workload;
    c.seed = 3;
    c.seconds = 0.6;
    c.data_dir = PERFBENCH_TEST_DATA_DIR;
    c.executors = 3;
    c.paged_rows = 3000;
    c.paged_pool_bytes = 512 * 1024;
    c.paged_rate_qps = 20.0;
    c.ram_rows = 400;
    c.ram_rate_qps = 40.0;
    c.ram_datasets = 2;
    c.ram_contexts_per_dataset = 2;
    c.knn_rows = 4000;
    c.knn_pool_bytes = 1 << 20;
    c.knn_targets = 3;
    c.setup_repeats = 2;
    return c;
  }

  void SetUp() override {
    std::filesystem::create_directories(PERFBENCH_TEST_DATA_DIR);
  }
};

TEST_P(TinyRun, AnswersMatchReferences) {
  Config c = Tiny(GetParam());
  c.trace = true;
  Result<RunResult> run = RunWorkload(c);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->correct);
  EXPECT_GT(run->attempted, 0u);
  EXPECT_EQ(run->failed, 0u);
  EXPECT_GT(run->Find("setup_s")->value, 0.0);
  EXPECT_GT(run->Find("latency_p50_ms")->value, 0.0);
  Result<RunResult> layers = SelectMetrics(*run, true);
  ASSERT_TRUE(layers.ok()) << layers.status().ToString();
  EXPECT_EQ(layers->metrics.size(), PerLayerMetrics().size());
}

TEST_P(TinyRun, CorruptedReferenceFailsTheRun) {
  Config c = Tiny(GetParam());
  c.corrupt_reference = true;
  Result<RunResult> run = RunWorkload(c);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->correct);
  EXPECT_GT(run->failed, 0u);
  EXPECT_LT(run->Find("success_rate")->value, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun,
                         ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
