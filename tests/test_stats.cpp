#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace aqm {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum of squared devs = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(5);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(-100.0);  // clamps into first bucket
  h.add(100.0);   // clamps into last bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

TEST(Histogram, QuantileInterpolation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 100.0, 1.0);
}

TEST(RunningStats, MergeEmptyIntoEmpty) {
  RunningStats a;
  RunningStats b;
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Histogram, QuantileEmptyIsZero) {
  const Histogram h(0.0, 10.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileSingleSample) {
  Histogram h(0.0, 10.0, 10);
  h.add(4.5);  // lands in bucket [4, 5)
  // Every quantile of a one-sample histogram falls inside that bucket.
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(h.quantile(q), 4.0);
    EXPECT_LE(h.quantile(q), 5.0);
  }
}

TEST(Histogram, QuantileOutOfRangeClamped) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  EXPECT_NEAR(h.quantile(2.0), 100.0, 1.0);
}

TEST(Histogram, MergeSumsBuckets) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  b.add(1.5);
  b.add(8.5);
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(1), 2u);
  EXPECT_EQ(a.bucket(8), 1u);
}

TEST(Histogram, MergeRejectsLayoutMismatch) {
  Histogram a(0.0, 10.0, 10);
  a.add(5.0);
  const Histogram other_bounds(0.0, 20.0, 10);
  const Histogram other_buckets(0.0, 10.0, 20);
  EXPECT_FALSE(a.merge(other_bounds));
  EXPECT_FALSE(a.merge(other_buckets));
  // A failed merge leaves the target untouched.
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.bucket(5), 1u);
  // Scale is part of the layout: a linear and a log histogram with the
  // same bounds and bucket count do not merge.
  Histogram linear(1.0, 1000.0, 12);
  Histogram log = Histogram::log_scaled(1.0, 1000.0, 12);
  log.add(5.0);
  EXPECT_FALSE(linear.merge(log));
  EXPECT_FALSE(log.merge(linear));
  EXPECT_EQ(linear.count(), 0u);
  EXPECT_EQ(log.count(), 1u);
}

TEST(Histogram, BucketBounds) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 12.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 18.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 20.0);
}

TEST(Histogram, LogScaledGeometricEdgesAndClamping) {
  // 4 buckets over [1, 10000]: each edge is 10x the previous.
  Histogram h = Histogram::log_scaled(1.0, 10000.0, 4);
  EXPECT_TRUE(h.log_scale());
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 1.0);
  EXPECT_NEAR(h.bucket_hi(0), 10.0, 1e-9);
  EXPECT_NEAR(h.bucket_lo(3), 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 10000.0);
  EXPECT_EQ(h.bucket_index(5.0), 0u);
  EXPECT_EQ(h.bucket_index(50.0), 1u);
  EXPECT_EQ(h.bucket_index(5000.0), 3u);
  // At or below lo clamps into the first bucket — including non-positive
  // values, which have no logarithm; above hi clamps into the last.
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(0.0), 0u);
  EXPECT_EQ(h.bucket_index(-3.0), 0u);
  EXPECT_EQ(h.bucket_index(1e9), 3u);
}

TEST(Histogram, BucketIndexPlusAddAtMatchesAdd) {
  // The hot-path split (classify once, add_at into same-layout histograms)
  // must land samples exactly where add() does.
  Histogram a = Histogram::log_scaled(0.01, 1e5, 96);
  Histogram b = Histogram::log_scaled(0.01, 1e5, 96);
  const double samples[] = {0.005, 0.01, 0.7, 1.0, 33.3, 950.0, 2e5};
  for (const double x : samples) {
    a.add(x);
    b.add_at(b.bucket_index(x));
  }
  ASSERT_EQ(a.count(), b.count());
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    EXPECT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
  }
}

TEST(Histogram, LogScaledQuantileTracksUpperBucket) {
  Histogram h = Histogram::log_scaled(0.01, 1e5, 96);
  for (int i = 0; i < 99; ++i) h.add(1.0);
  h.add(500.0);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  // Geometric buckets bound relative error: p50 sits in the bucket
  // holding 1.0, the tail quantile in the bucket holding 500.
  EXPECT_GT(p50, 0.8);
  EXPECT_LT(p50, 1.3);
  EXPECT_GT(p99, 1.0);
  EXPECT_LE(h.quantile(1.0), 600.0);
  EXPECT_GT(h.quantile(1.0), 400.0);
}

TEST(TimeSeries, StatsBetweenWindow) {
  TimeSeries ts;
  ts.add(TimePoint{seconds(1).ns()}, 10.0);
  ts.add(TimePoint{seconds(2).ns()}, 20.0);
  ts.add(TimePoint{seconds(3).ns()}, 30.0);
  const auto s = ts.stats_between(TimePoint{seconds(1).ns()}, TimePoint{seconds(3).ns()});
  EXPECT_EQ(s.count(), 2u);  // [1s, 3s): includes t=1s and t=2s
  EXPECT_DOUBLE_EQ(s.mean(), 15.0);
}

TEST(TimeSeries, BucketizeIncludesEmptyIntervals) {
  TimeSeries ts;
  ts.add(TimePoint{seconds(0).ns() + 1}, 5.0);
  ts.add(TimePoint{seconds(2).ns() + 1}, 7.0);
  const auto buckets = ts.bucketize(seconds(1), TimePoint{seconds(3).ns()});
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].count, 0u);
  EXPECT_EQ(buckets[2].count, 1u);
  EXPECT_DOUBLE_EQ(buckets[2].mean, 7.0);
}

TEST(TimeSeries, FormatTableHasRowPerBucket) {
  TimeSeries ts;
  ts.add(TimePoint{1}, 1.0);
  const auto buckets = ts.bucketize(seconds(1), TimePoint{seconds(2).ns()});
  const std::string table = format_series_table(buckets, "ms");
  // Header + 2 rows.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);
}

}  // namespace
}  // namespace aqm
