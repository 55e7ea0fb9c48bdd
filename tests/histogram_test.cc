// Unit and property tests for common/histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"

namespace ecostore {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactAggregates) {
  Histogram h;
  for (int64_t v : {10, 20, 30, 40}) h.Add(v);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 40);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, QuantilesOrdered) {
  Histogram h;
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) h.Add(rng.UniformInt(0, 1000000));
  double p10 = h.Quantile(0.10);
  double p50 = h.Quantile(0.50);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // Uniform distribution: medians near the middle (log buckets are
  // coarse, allow generous slack).
  EXPECT_NEAR(p50, 500000, 200000);
}

TEST(HistogramTest, MergeAddsUp) {
  Histogram a, b;
  a.Add(5);
  a.Add(100);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_DOUBLE_EQ(a.Mean(), (5.0 + 100.0 + 1000.0) / 3.0);
}

TEST(HistogramTest, CountAboveBoundary) {
  Histogram h;
  for (int64_t v : {1, 2, 3, 100, 200, 5000}) h.Add(v);
  EXPECT_EQ(h.CountAbove(h.max()), 0);
  EXPECT_GE(h.CountAbove(0), 5);  // everything above the first bucket
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(7);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(42);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

// The original bucket rule, kept here as the reference: limits 1, then
// limit + max(1, limit / 2) while below INT64_MAX / 2, closed by
// INT64_MAX; a value belongs to the first bucket whose limit is >= it.
const std::vector<int64_t>& ReferenceLimits() {
  static const std::vector<int64_t> limits = [] {
    std::vector<int64_t> out;
    int64_t limit = 1;
    while (limit < std::numeric_limits<int64_t>::max() / 2) {
      out.push_back(limit);
      limit += std::max<int64_t>(1, limit / 2);
    }
    out.push_back(std::numeric_limits<int64_t>::max());
    return out;
  }();
  return limits;
}

size_t ReferenceBucket(int64_t value) {
  const std::vector<int64_t>& limits = ReferenceLimits();
  return static_cast<size_t>(
      std::lower_bound(limits.begin(), limits.end(), value) - limits.begin());
}

/// [0, 2^20], every bucket limit +-2, and INT64_MAX.
std::vector<int64_t> EquivalenceValues() {
  std::vector<int64_t> values;
  for (int64_t v = 0; v <= (int64_t{1} << 20); ++v) values.push_back(v);
  for (int64_t limit : ReferenceLimits()) {
    for (int64_t d = -2; d <= 2; ++d) {
      if (d > 0 && limit > std::numeric_limits<int64_t>::max() - d) continue;
      if (limit + d >= 0) values.push_back(limit + d);
    }
  }
  values.push_back(std::numeric_limits<int64_t>::max());
  return values;
}

TEST(HistogramTest, HasTheReferenceBucketCount) {
  EXPECT_EQ(ReferenceLimits().size(), Histogram::kBucketCount);
  EXPECT_EQ(Histogram::kBucketCount, 107u);
}

// Add places each value in its reference bucket: the bucket's lower edge
// shows through Quantile(0.5), and CountAbove brackets the bucket.
TEST(HistogramTest, AddMatchesReferenceBuckets) {
  const std::vector<int64_t>& limits = ReferenceLimits();
  Histogram h;
  int mismatches = 0;
  for (int64_t v : EquivalenceValues()) {
    h.Reset();
    h.Add(v);
    size_t b = ReferenceBucket(v);
    int64_t lo = b == 0 ? 0 : limits[b - 1];
    double p50 = static_cast<double>(lo) +
                 0.5 * static_cast<double>(v - lo);
    bool ok = h.Quantile(0.5) == p50 && h.CountAbove(limits[b]) == 0 &&
              (b == 0 || h.CountAbove(limits[b - 1]) == 1);
    if (!ok && ++mismatches <= 5) ADD_FAILURE() << "value " << v;
  }
  EXPECT_EQ(mismatches, 0);
}

// With one value per bucket, CountAbove(t) is the number of buckets above
// t's reference bucket, so every threshold's bucket is checked directly.
TEST(HistogramTest, CountAboveMatchesReferenceBuckets) {
  const std::vector<int64_t>& limits = ReferenceLimits();
  Histogram h;
  for (int64_t limit : limits) h.Add(limit);
  const auto n = static_cast<int64_t>(limits.size());
  int mismatches = 0;
  for (int64_t t : EquivalenceValues()) {
    int64_t expected = n - 1 - static_cast<int64_t>(ReferenceBucket(t));
    if (h.CountAbove(t) != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "threshold " << t;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Negative thresholds fall in bucket 0, as lower_bound puts them.
  EXPECT_EQ(h.CountAbove(-1), n - 1);
  EXPECT_EQ(h.CountAbove(std::numeric_limits<int64_t>::min()), n - 1);
}

TEST(HistogramTest, CopyKeepsCounts) {
  Histogram h;
  Xoshiro256 rng(3);
  for (int i = 0; i < 5000; ++i) h.Add(rng.UniformInt(0, 1 << 24));
  Histogram copy = h;
  h.Reset();  // the copy owns its counts
  EXPECT_EQ(copy.count(), 5000);
  Histogram expected;
  Xoshiro256 replay(3);
  for (int i = 0; i < 5000; ++i) expected.Add(replay.UniformInt(0, 1 << 24));
  for (int64_t limit : ReferenceLimits()) {
    EXPECT_EQ(copy.CountAbove(limit), expected.CountAbove(limit));
  }
  for (double q : {0.1, 0.5, 0.9, 0.999}) {
    EXPECT_EQ(copy.Quantile(q), expected.Quantile(q));
  }
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.CountAbove(-1), 0);
}

// Property sweep: for many random datasets, mean is exact and quantiles
// bounded by min/max.
class HistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramPropertyTest, MeanExactQuantilesBounded) {
  Xoshiro256 rng(GetParam());
  Histogram h;
  double sum = 0;
  int n = 1 + static_cast<int>(rng.UniformInt(0, 5000));
  for (int i = 0; i < n; ++i) {
    int64_t v = rng.UniformInt(0, 1u << static_cast<int>(rng.UniformInt(0, 30)));
    h.Add(v);
    sum += static_cast<double>(v);
  }
  EXPECT_DOUBLE_EQ(h.Mean(), sum / n);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    double value = h.Quantile(q);
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, static_cast<double>(h.max()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace ecostore
