#include "harness.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

// --- Percentile rule: highest percentile with >= 10 samples beyond it.

TEST(PercentileRule, CountsSamplesBeyondTheNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9);
  EXPECT_EQ(SamplesBeyond(100, 50.0), 50);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0);
}

TEST(PercentileRule, PicksTheHighestSupportedLadderStep) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);  // p50 leaves 9 beyond
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(10000000), 99.9);
}

TEST(PercentileRule, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(PercentileRule, WindowedPercentileIgnoresOneStalledWindow) {
  // Five 1-second windows of 1000 samples at 1 ms; window 2 stalls.
  std::vector<double> at, v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) {
      at.push_back(w + i / 1000.0);
      v.push_back(w == 2 ? 0.050 : 0.001 + i * 1e-6);
    }
  }
  int64_t windows = 0;
  EXPECT_NEAR(WindowedPercentile(at, v, 1.0, 99.0, &windows), 0.001989, 1e-9);
  EXPECT_EQ(windows, 5);
  // Windows too small to support p99 are skipped.
  EXPECT_TRUE(std::isnan(WindowedPercentile(at, v, 0.5, 99.0, &windows)));
  EXPECT_EQ(windows, 0);
}

TEST(PercentileRule, WindowedRateIsAMedianOverFullWindows) {
  std::vector<double> at;
  for (int i = 0; i < 400; ++i) at.push_back(i * 0.01);  // 100/s for 4 s
  for (int i = 0; i < 100; ++i) at.push_back(1.0 + i * 0.001);  // burst
  EXPECT_NEAR(WindowedRate(at, 1.0), 100.0, 1e-9);
  EXPECT_TRUE(std::isnan(WindowedRate({}, 1.0)));
}

// --- Open-loop lateness accounting.

TEST(OpenLoop, ScheduleIgnoresEarlierRequests) {
  const OpenLoopSchedule s{10.0, 1000.0};
  EXPECT_DOUBLE_EQ(s.Due(0), 10.0);
  EXPECT_DOUBLE_EQ(s.Due(1500), 11.5);
}

TEST(OpenLoop, StallMakesEveryDelayedSendLate) {
  // Five requests due every 10 ms; the generator stalls 35 ms before the
  // first send and then sends the backlog at once.
  const OpenLoopSchedule s{0.0, 100.0};
  const std::vector<double> late = {0.035, 0.025, 0.015, 0.005, 0.0};
  for (int i = 0; i < 5; ++i) {
    const double sent = std::max(s.Due(i), 0.035);
    EXPECT_NEAR(s.Lateness(i, sent), late[static_cast<size_t>(i)], 1e-12);
  }
}

TEST(OpenLoop, EarlySendIsNotNegativeLateness) {
  const OpenLoopSchedule s{1.0, 10.0};
  EXPECT_EQ(s.Lateness(0, 0.999), 0.0);
  EXPECT_EQ(s.Lateness(3, 1.25), 0.0);
}

// --- Metric-name validation.

TEST(MetricNames, AcceptsTheBenchmarkAlphabet) {
  for (const char* ok : {"setup_s", "knn_p99_ms", "nn.phase_coverage",
                         "la.decoder_gemm_gflops", "a-b", "9lives"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "x/y", "p99%",
                          "emoji\xc3\xa9"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNames, UnitAlphabet) {
  for (const char* ok :
       {"ms", "s", "1/s", "count", "%", "GFLOP/s", "nodes/s"}) {
    EXPECT_TRUE(ValidUnit(ok)) << ok;
  }
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("per second"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

// --- Result schema. The round trip through the checker that guards the
// printed line (run.py check_result) is driven by `run.py --selftest`,
// which reads the line this test writes to $PERFBENCH_RESULT_SAMPLE.

TEST(ResultSchema, RendersEveryDigit) {
  RunResult r;
  r.correct = true;
  r.attempted = 3;
  r.failed = 0;
  r.metrics["setup_s"] = {0.8127, "s"};
  r.metrics["nan_ms"] = {std::nan(""), "ms"};
  EXPECT_EQ(RenderResult(r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"nan_ms\": {\"value\": null, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}");
}

TEST(ResultSchema, WritesTheSampleForTheChecker) {
  RunResult r;
  r.correct = true;
  r.attempted = 12345;
  r.failed = 0;
  r.metrics["latency_ms"] = {1.2034567890123456, "ms"};
  r.metrics["setup_s"] = {0.8127, "s"};
  r.metrics["knn_qps"] = {4321.5, "queries/s"};
  r.metrics["serve.failed"] = {0, "count"};
  r.metrics["nn.phase_coverage"] = {0.97, "ratio"};
  const char* path = std::getenv("PERFBENCH_RESULT_SAMPLE");
  if (path == nullptr) GTEST_SKIP() << "PERFBENCH_RESULT_SAMPLE not set";
  std::ofstream out(path);
  out << RenderResult(r) << "\n";
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

// --- Tracer self time.

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Tracer::Event> e(4);
  e[0] = {"core.epoch", 1, 0, 1, 0.0, 10.0};
  e[1] = {"nn.encode", 2, 1, 1, 1.0, 4.0};
  e[2] = {"nn.decoder", 3, 1, 2, 3.0, 6.0};   // overlaps its sibling
  e[3] = {"la.matmul", 4, 3, 2, 3.5, 5.0};
  const std::vector<double> self = SelfTimes(e);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0);  // children cover [1, 6]
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 1.5);
  EXPECT_DOUBLE_EQ(self[3], 1.5);
}

}  // namespace
}  // namespace perfbench
