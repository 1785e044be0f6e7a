#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

namespace tfr {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  // Percentile error is bounded by bucket width (~5%).
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 1000.0, 80.0);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.record(i);
  const auto p50 = h.percentile(50);
  const auto p90 = h.percentile(90);
  const auto p99 = h.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 500.0);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 800.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.record(10);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, ConcurrentRecordsAreAllCounted) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.record(100 + i % 50);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 40000u);
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.record(1500);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

TEST(TimeSeriesTest, BucketsByInterval) {
  TimeSeriesRecorder rec(millis(20), 64);
  rec.start();
  rec.record(millis(3));
  rec.record(millis(7));
  sleep_millis(25);
  rec.record(millis(11));
  auto series = rec.snapshot();
  ASSERT_GE(series.size(), 2u);
  // First bucket holds two samples at 50/s each over 20ms -> 100 tps.
  EXPECT_NEAR(series[0].throughput, 100.0, 1.0);
  EXPECT_NEAR(series[0].mean_latency_ms, 5.0, 0.5);
}

TEST(TimeSeriesTest, ErrorsAreCounted) {
  TimeSeriesRecorder rec(millis(50), 8);
  rec.start();
  rec.record_error();
  rec.record_error();
  auto series = rec.snapshot();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series[0].errors, 2u);
}

TEST(TimeSeriesTest, ElapsedGrows) {
  TimeSeriesRecorder rec(millis(10), 8);
  rec.start();
  sleep_millis(5);
  EXPECT_GT(rec.elapsed_seconds(), 0.0);
}

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.add();
  c.add(5);
  EXPECT_EQ(c.get(), 6);
  c.reset();
  EXPECT_EQ(c.get(), 0);
}

TEST(CounterTest, SetHoldsALevelThatMovesBothWays) {
  Counter c;
  c.set(10);
  EXPECT_EQ(c.get(), 10);
  c.add(-3);
  EXPECT_EQ(c.get(), 7);
  c.set(2);
  EXPECT_EQ(c.get(), 2);
  c.add();
  EXPECT_EQ(c.get(), 3);
  c.reset();
  EXPECT_EQ(c.get(), 0);
}

TEST(MetricRegistryTest, CounterAndGaugeOfOneNameAreDistinct) {
  const std::string name = "metrics_test.shared_name";
  Counter& counter = global_counter(name);
  Counter& gauge = global_gauge(name);
  EXPECT_NE(&counter, &gauge);
  EXPECT_EQ(&global_counter(name), &counter) << "addresses are stable";
  EXPECT_EQ(&global_gauge(name), &gauge) << "addresses are stable";
  counter.set(0);
  gauge.set(0);
  counter.add(4);
  gauge.set(9);
  EXPECT_EQ(counter.get(), 4);
  EXPECT_EQ(gauge.get(), 9);
  auto value_in = [&name](const std::vector<std::pair<std::string, std::int64_t>>& snap) {
    for (const auto& [n, v] : snap) {
      if (n == name) return v;
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(value_in(global_counter_snapshot()), 4);
  EXPECT_EQ(value_in(global_gauge_snapshot()), 9);
  reset_global_gauges();
  EXPECT_EQ(gauge.get(), 0);
  EXPECT_EQ(counter.get(), 4) << "resetting the gauges leaves the counters alone";
}

TEST(MetricRegistryTest, SnapshotsAreSortedByName) {
  for (const char* name : {"metrics_test.zeta", "metrics_test.alpha", "metrics_test.mu"}) {
    global_counter(name).add();
    global_gauge(name).set(1);
    global_histogram(name).record(1);
  }
  auto names_sorted = [](const auto& snap) {
    std::vector<std::string> names;
    for (const auto& entry : snap) names.push_back(entry.first);
    return names.size() >= 3 && std::is_sorted(names.begin(), names.end());
  };
  EXPECT_TRUE(names_sorted(global_counter_snapshot()));
  EXPECT_TRUE(names_sorted(global_gauge_snapshot()));
  EXPECT_TRUE(names_sorted(global_histogram_snapshot()));
  for (const auto& [name, hist] : global_histogram_snapshot()) {
    if (name == "metrics_test.mu") {
      EXPECT_EQ(hist, &global_histogram(name));
    }
  }
}

}  // namespace
}  // namespace tfr
