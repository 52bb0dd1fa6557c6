/// \file metrics_test.cc
/// \brief Tests for the process-wide metrics registry: concurrency, bucket
/// boundary placement, snapshot isolation, and JSON round-trips.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

namespace confide::metrics {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddNegative) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-25);
  EXPECT_EQ(gauge.Value(), -15);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsFromEightThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIterations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIterations; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t(kThreads) * kIterations);
}

TEST(RegistryTest, ConcurrentRegistrationAndUpdates) {
  // Threads race both the registration slow path (mutex) and the update
  // fast path (relaxed atomics) against the same names.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* shared = registry.GetCounter("shared.count");
      Histogram* histogram = registry.GetHistogram("shared.hist", {10, 100});
      for (int i = 0; i < kIterations; ++i) {
        shared->Increment();
        histogram->Observe(uint64_t(i % 200));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("shared.count"), uint64_t(kThreads) * kIterations);
  const auto& hist = snapshot.histograms.at("shared.hist");
  EXPECT_EQ(hist.count, uint64_t(kThreads) * kIterations);
  uint64_t bucket_total = 0;
  for (uint64_t c : hist.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count);
}

TEST(RegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
}

TEST(RegistryTest, CrossKindLookupReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("name.count"), nullptr);
  EXPECT_EQ(registry.GetGauge("name.count"), nullptr);
  EXPECT_EQ(registry.GetHistogram("name.count"), nullptr);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram histogram({10, 100, 1000});
  histogram.Observe(0);     // bucket 0 (<= 10)
  histogram.Observe(10);    // bucket 0 (inclusive)
  histogram.Observe(11);    // bucket 1
  histogram.Observe(100);   // bucket 1 (inclusive)
  histogram.Observe(101);   // bucket 2
  histogram.Observe(1000);  // bucket 2 (inclusive)
  histogram.Observe(1001);  // overflow bucket
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 2u);
  EXPECT_EQ(histogram.bucket_count(2), 2u);
  EXPECT_EQ(histogram.bucket_count(3), 1u);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_EQ(histogram.sum(), 0u + 10 + 11 + 100 + 101 + 1000 + 1001);
}

TEST(HistogramTest, DefaultLatencyLadderCoversMicroToSeconds) {
  std::vector<uint64_t> bounds = Histogram::DefaultLatencyBoundsNs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 1000u);            // 1 µs
  EXPECT_EQ(bounds.back(), 10'000'000'000u);   // 10 s
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(SnapshotTest, IsolatedFromLaterUpdates) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("iso.count");
  Gauge* gauge = registry.GetGauge("iso.gauge");
  Histogram* histogram = registry.GetHistogram("iso.hist", {5});
  counter->Increment(3);
  gauge->Set(-7);
  histogram->Observe(4);

  MetricsSnapshot before = registry.Snapshot();

  counter->Increment(100);
  gauge->Set(99);
  histogram->Observe(1000);

  EXPECT_EQ(before.counter("iso.count"), 3u);
  EXPECT_EQ(before.gauges.at("iso.gauge"), -7);
  EXPECT_EQ(before.histograms.at("iso.hist").count, 1u);

  MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counter("iso.count"), 103u);
  EXPECT_EQ(after.gauges.at("iso.gauge"), 99);
  EXPECT_EQ(after.histograms.at("iso.hist").count, 2u);
  EXPECT_NE(before, after);
}

TEST(SnapshotTest, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("rt.a.count")->Increment(17);
  registry.GetCounter("rt.b.count");  // zero-valued survives the trip too
  registry.GetGauge("rt.gauge")->Set(-42);
  Histogram* histogram = registry.GetHistogram("rt.hist", {1, 2, 5});
  histogram->Observe(0);
  histogram->Observe(3);
  histogram->Observe(1'000'000);

  MetricsSnapshot snapshot = registry.Snapshot();
  std::string json = snapshot.ToJson();
  auto parsed = MetricsSnapshot::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snapshot);
  // Serialization is deterministic.
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(SnapshotTest, JsonEscapesAwkwardNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird.\"quoted\"\\name\n.count")->Increment();
  MetricsSnapshot snapshot = registry.Snapshot();
  auto parsed = MetricsSnapshot::FromJson(snapshot.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, snapshot);
}

TEST(SnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(MetricsSnapshot::FromJson("").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("not json").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("{\"counters\":{").ok());
  EXPECT_FALSE(MetricsSnapshot::FromJson("[1,2,3]").ok());
}

TEST(RegistryTest, ResetAllZeroesButKeepsPointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("r.count");
  Histogram* histogram = registry.GetHistogram("r.hist");
  counter->Increment(9);
  histogram->Observe(123);
  registry.ResetAll();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(registry.GetCounter("r.count"), counter);
  counter->Increment();  // pointer still live and wired to the registry
  EXPECT_EQ(registry.Snapshot().counter("r.count"), 1u);
}

TEST(GlobalRegistryTest, FreeHelpersHitTheGlobalRegistry) {
  Counter* counter = GetCounter("global.helper.count");
  ASSERT_NE(counter, nullptr);
  uint64_t before = MetricsRegistry::Global().Snapshot().counter(
      "global.helper.count");
  counter->Increment(5);
  uint64_t after = MetricsRegistry::Global().Snapshot().counter(
      "global.helper.count");
  EXPECT_EQ(after - before, 5u);
}

TEST(DumpSnapshotTest, WritesJsonLineThatRoundTrips) {
  GetCounter("dump.helper.count")->Increment(3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "confide_metrics_dump.json")
          .string();
  ASSERT_TRUE(DumpSnapshot(path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  contents.pop_back();
  auto parsed = MetricsSnapshot::FromJson(contents);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GE(parsed->counter("dump.helper.count"), 3u);
  EXPECT_EQ(parsed->ToJson(), contents);  // nothing but ToJson() + '\n'
}

TEST(DumpSnapshotTest, UnwritablePathIsAnError) {
  const auto dir =
      std::filesystem::temp_directory_path() / "confide_metrics_no_such_dir";
  std::filesystem::remove_all(dir);
  Status status = DumpSnapshot((dir / "metrics.json").string());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("metrics.json"), std::string::npos);
}

TEST(ScopedLatencyTimerTest, ObservesOnDestruction) {
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("timer.hist");
  {
    ScopedLatencyTimer timer(histogram);
  }
  EXPECT_EQ(histogram->count(), 1u);
}

}  // namespace
}  // namespace confide::metrics
