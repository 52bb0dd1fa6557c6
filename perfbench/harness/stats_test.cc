/// \file stats_test.cc
/// \brief Unit tests for the benchmark's own arithmetic (stats.h).

#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyondTheRank) {
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  ASSERT_TRUE(Percentile(Ramp(20), 0.50).has_value());
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, NearestRankValues) {
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(20), 0.50), 10.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.50), 500.0);
  // Order of the input does not matter.
  std::vector<double> shuffled = Ramp(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(*Percentile(shuffled, 0.50), 50.0);
}

TEST(PercentileTest, BatchedPercentileIgnoresOneBadBatch) {
  // Five batches of 1000; the third has a hiccup in its tail.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(b == 2 && i > 900 ? 1e6 : double(i));
  }
  EXPECT_DOUBLE_EQ(*BatchedPercentile(v, 5, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(*BatchedPercentile(v, 5, 0.50), 500.0);
  // Every batch must support the percentile on its own.
  EXPECT_FALSE(BatchedPercentile(std::vector<double>(v.begin(), v.begin() + 4999), 5, 0.99));
  EXPECT_TRUE(BatchedPercentile(v, 4, 0.99).has_value());
  EXPECT_FALSE(BatchedPercentile({}, 5, 0.50).has_value());
}

TEST(CommitTimelineTest, BlockCommitsWhenHeightFirstPassesIt) {
  CommitTimeline tl;
  tl.Observe(100, 0);
  tl.Observe(200, 2);  // blocks 0 and 1 applied by t=200
  tl.Observe(300, 2);  // no change: ignored
  tl.Observe(400, 3);  // block 2 applied by t=400
  EXPECT_EQ(tl.CommitTimeNs(0), std::optional<uint64_t>(200));
  EXPECT_EQ(tl.CommitTimeNs(1), std::optional<uint64_t>(200));
  EXPECT_EQ(tl.CommitTimeNs(2), std::optional<uint64_t>(400));
  EXPECT_FALSE(tl.CommitTimeNs(3).has_value());
}

TEST(CommitTimelineTest, EmptyAndNonIncreasingObservations) {
  CommitTimeline tl;
  EXPECT_FALSE(tl.CommitTimeNs(0).has_value());
  tl.Observe(50, 5);
  tl.Observe(60, 4);  // a lower reading never rewinds the timeline
  tl.Observe(70, 6);
  EXPECT_EQ(tl.CommitTimeNs(4), std::optional<uint64_t>(50));
  EXPECT_EQ(tl.CommitTimeNs(5), std::optional<uint64_t>(70));
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  auto a = PoissonSchedule(7, 300, 10'000'000'000ull, 1'000'000);
  auto b = PoissonSchedule(7, 300, 10'000'000'000ull, 1'000'000);
  auto c = PoissonSchedule(8, 300, 10'000'000'000ull, 1'000'000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 10'000'000'000ull);
  // 300/s over 10 s: 3000 expected, sd ~55.
  EXPECT_GT(a.size(), 2700u);
  EXPECT_LT(a.size(), 3300u);
}

TEST(PoissonScheduleTest, CountLimitAndRate) {
  auto a = PoissonSchedule(3, 3000, UINT64_MAX, 9000);
  ASSERT_EQ(a.size(), 9000u);
  // Mean gap 1/3000 s: 9000 arrivals span about 3 s.
  EXPECT_GT(a.back(), 2'700'000'000ull);
  EXPECT_LT(a.back(), 3'300'000'000ull);
  EXPECT_TRUE(PoissonSchedule(3, 0, UINT64_MAX, 10).empty());
}

}  // namespace
}  // namespace perfbench
