#ifndef ECOSTORE_COMMON_HISTOGRAM_H_
#define ECOSTORE_COMMON_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ecostore {

/// \brief Log-bucketed histogram of non-negative values with exact count,
/// sum, min and max.
///
/// Buckets grow geometrically (factor ~1.5 starting at 1), which keeps
/// relative quantile error bounded while using a fixed, small footprint.
/// Used for response times (microseconds) and interval lengths. The bucket
/// limits are one shared compile-time table and the counts a fixed array,
/// so construction and copies never allocate.
class Histogram {
 public:
  /// Number of buckets: limits 1, 2, 3, 4, 6, 9, ... (each limit plus
  /// max(1, limit / 2)) while below INT64_MAX / 2, closed by INT64_MAX.
  static constexpr size_t kBucketCount = 107;

  Histogram() = default;

  void Add(int64_t value);
  void Merge(const Histogram& other);
  void Reset();

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  int64_t min() const { return count_ > 0 ? min_ : 0; }
  int64_t max() const { return max_; }

  /// Arithmetic mean of added values (0 when empty).
  double Mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

  /// Approximate quantile (q in [0, 1]) via linear interpolation within the
  /// containing bucket.
  double Quantile(double q) const;

  /// Number of values strictly greater than `threshold` (approximate at
  /// bucket granularity; exact when threshold is a bucket boundary).
  int64_t CountAbove(int64_t threshold) const;

  /// One-line summary: count / mean / p50 / p95 / p99 / max.
  std::string ToString() const;

 private:
  /// Index of the first bucket whose limit is >= `value` (bucket 0 for
  /// values <= 1, including negatives).
  static size_t BucketFor(int64_t value);

  std::array<int64_t, kBucketCount> counts_{};
  int64_t count_ = 0;
  double sum_ = 0.0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace ecostore

#endif  // ECOSTORE_COMMON_HISTOGRAM_H_
