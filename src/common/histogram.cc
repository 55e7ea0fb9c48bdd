#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace ecostore {

namespace {

constexpr size_t kBucketCount = Histogram::kBucketCount;
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// The bucket upper bounds (inclusive), shared by every Histogram. Too
/// small a kBucketCount fails constant evaluation here; too large a one
/// leaves a zero last limit, which the static_assert below rejects.
constexpr std::array<int64_t, kBucketCount> MakeBucketLimits() {
  std::array<int64_t, kBucketCount> limits{};
  size_t i = 0;
  for (int64_t limit = 1; limit < kInt64Max / 2;
       limit += std::max<int64_t>(1, limit / 2)) {
    limits[i++] = limit;
  }
  limits[i] = kInt64Max;
  return limits;
}

constexpr std::array<int64_t, kBucketCount> kBucketLimits =
    MakeBucketLimits();
static_assert(kBucketLimits[kBucketCount - 1] == kInt64Max);

/// kFirstCandidate[w] is the first bucket that can hold a value of bit
/// width w: the lower bound of 2^(w-1), the smallest such value.
constexpr std::array<uint8_t, 64> MakeFirstCandidates() {
  std::array<uint8_t, 64> first{};
  for (int w = 1; w < 64; ++w) {
    int64_t smallest = int64_t{1} << (w - 1);
    first[w] = static_cast<uint8_t>(
        std::lower_bound(kBucketLimits.begin(), kBucketLimits.end(),
                         smallest) -
        kBucketLimits.begin());
  }
  return first;
}

constexpr std::array<uint8_t, 64> kFirstCandidate = MakeFirstCandidates();

/// Limits grow by at most 1.5x per bucket, so the values of one bit width
/// (a 2x range) span at most three buckets: BucketFor steps at most twice.
constexpr bool TwoStepsSuffice() {
  for (int w = 1; w < 64; ++w) {
    int64_t largest = w == 63 ? kInt64Max : (int64_t{1} << w) - 1;
    size_t last = std::min<size_t>(kFirstCandidate[w] + 2, kBucketCount - 1);
    if (kBucketLimits[last] < largest) return false;
  }
  return true;
}
static_assert(TwoStepsSuffice());

}  // namespace

void Histogram::Reset() {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

size_t Histogram::BucketFor(int64_t value) {
  if (value <= 1) return 0;
  size_t i = kFirstCandidate[std::bit_width(static_cast<uint64_t>(value))];
  i += kBucketLimits[i] < value;
  i += kBucketLimits[i] < value;
  return i;
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  counts_[BucketFor(value)]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_++;
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(seen + counts_[i]) >= target) {
      int64_t lo = (i == 0) ? 0 : kBucketLimits[i - 1];
      int64_t hi = std::min(kBucketLimits[i], max_);
      double within =
          (target - static_cast<double>(seen)) / static_cast<double>(counts_[i]);
      return static_cast<double>(lo) +
             within * static_cast<double>(hi - lo);
    }
    seen += counts_[i];
  }
  return static_cast<double>(max_);
}

int64_t Histogram::CountAbove(int64_t threshold) const {
  size_t start = BucketFor(threshold);
  int64_t total = 0;
  // Values equal to threshold live in bucket `start`; count only buckets
  // strictly above it, which makes the result exact for boundary thresholds
  // and conservative otherwise.
  for (size_t i = start + 1; i < counts_.size(); ++i) total += counts_[i];
  return total;
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%lld",
                static_cast<long long>(count_), Mean(), Quantile(0.5),
                Quantile(0.95), Quantile(0.99),
                static_cast<long long>(max_));
  return buf;
}

}  // namespace ecostore
