#ifndef ECOSTORE_TELEMETRY_ANALYSIS_LATENCY_HISTOGRAM_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_LATENCY_HISTOGRAM_H_

// Fixed-bucket log-linear latency histogram (HdrHistogram-style):
// values 0..15 land in unit-wide buckets, every power-of-two range above
// that is split into 16 linear sub-buckets, so the relative quantization
// error is bounded by 1/16 ≈ 6.25% at any magnitude. The bucket layout is
// FIXED — independent of the values recorded — so two histograms merge by
// element-wise addition, which is exactly associative and commutative
// (int64 adds), making per-thread books trivially mergeable.
//
// This is deliberately separate from common/histogram.h, whose fixed
// geometric buckets grow ~1.5x each and so are far coarser: the 16
// sub-buckets per octave here bound the quantile error at 6.25%, and this
// layout is the one the capture format encodes bucket by bucket.
//
// Header-only and dependency-free below common/ so storage/ can record
// into a book without a new link edge.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ecostore::telemetry::analysis {

class LatencyHistogram {
 public:
  /// Unit-wide buckets cover [0, kLinearMax); above that each octave has
  /// kSubBuckets linear sub-buckets.
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  static constexpr int kLinearMax = kSubBuckets;
  /// floor(log2(v)) of an int64 tops out at 62; octaves 4..62 each get
  /// kSubBuckets buckets after the 16 linear ones.
  static constexpr int kNumBuckets =
      kLinearMax + (62 - kSubBucketBits + 1) * kSubBuckets;

  void Record(int64_t value_us) {
    if (value_us < 0) value_us = 0;
    counts_[BucketIndex(value_us)]++;
    count_++;
    sum_ += value_us;
    max_ = std::max(max_, value_us);
  }

  /// Element-wise addition: exactly associative and commutative.
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    max_ = std::max(max_, other.max_);
  }

  /// Exact element-wise difference against an earlier snapshot of this
  /// same growing histogram (prefix property: every earlier count is <=
  /// the current one). Buckets, count and sum subtract exactly — the
  /// fixed layout makes cumulative snapshots diffable — but the true max
  /// of the difference is not recoverable, so it is re-estimated as the
  /// lower bound of the highest non-empty bucket (the same
  /// bucket-resolution guarantee Quantile gives).
  void SubtractPrefix(const LatencyHistogram& earlier) {
    int64_t est_max = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      counts_[i] -= earlier.counts_[i];
      if (counts_[i] > 0) est_max = BucketLow(i);
    }
    count_ -= earlier.count_;
    sum_ -= earlier.sum_;
    max_ = count_ > 0 ? std::min(max_, std::max<int64_t>(est_max, 0)) : 0;
  }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t max() const { return max_; }
  double Mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }

  /// Value at quantile q in [0, 1]: the lower bound of the bucket holding
  /// the ceil(q * count)-th recorded value (deterministic; relative error
  /// bounded by the bucket width). q >= 1 returns the exact max.
  int64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    if (q >= 1.0) return max_;
    if (q < 0.0) q = 0.0;
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_)) + 1;
    if (rank > count_) rank = count_;
    int64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return std::min(BucketLow(i), max_);
    }
    return max_;
  }

  bool operator==(const LatencyHistogram& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           max_ == other.max_ && counts_ == other.counts_;
  }

  /// Compact "idx:count" pairs for non-empty buckets (capture format).
  std::string EncodeBuckets() const {
    std::string out;
    char buf[48];
    for (int i = 0; i < kNumBuckets; ++i) {
      if (counts_[i] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s%d:%lld", out.empty() ? "" : " ", i,
                    static_cast<long long>(counts_[i]));
      out += buf;
    }
    return out;
  }

  /// Inverse of EncodeBuckets; rebuilds counts/count/sum (sum and max are
  /// carried separately in the capture since bucketing is lossy).
  void DecodeBuckets(const std::string& encoded, int64_t sum, int64_t max) {
    counts_.assign(kNumBuckets, 0);
    count_ = 0;
    const char* p = encoded.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      long idx = std::strtol(p, &end, 10);
      if (end == p || *end != ':') break;
      p = end + 1;
      long long c = std::strtoll(p, &end, 10);
      if (end == p) break;
      p = end;
      while (*p == ' ') p++;
      if (idx >= 0 && idx < kNumBuckets) {
        counts_[static_cast<size_t>(idx)] = c;
        count_ += c;
      }
    }
    sum_ = sum;
    max_ = max;
  }

  static int BucketIndex(int64_t v) {
    if (v < kLinearMax) return static_cast<int>(v);
    // floor(log2(v)) is bit_width(v) - 1 for v > 0.
    const int shift =
        std::bit_width(static_cast<uint64_t>(v)) - 1 - kSubBucketBits;
    int64_t idx = kSubBuckets * static_cast<int64_t>(shift) + (v >> shift);
    return static_cast<int>(std::min<int64_t>(idx, kNumBuckets - 1));
  }

  /// Lower bound of bucket `idx` (exact inverse of BucketIndex's floor).
  static int64_t BucketLow(int idx) {
    if (idx < kLinearMax) return idx;
    int octave = idx / kSubBuckets;  // >= 1
    int sub = idx % kSubBuckets;
    return static_cast<int64_t>(kSubBuckets + sub) << (octave - 1);
  }

 private:
  std::vector<int64_t> counts_ = std::vector<int64_t>(kNumBuckets, 0);
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t max_ = 0;
};

/// Latency split axes: the paper's four I/O patterns plus "unclassified"
/// (items the policy has not classified yet, and all baseline policies).
inline constexpr int kNumPatternSlots = 5;
inline constexpr uint8_t kPatternUnclassified = 4;

/// Outcome of one logical I/O relative to the cache and power state.
enum class IoOutcome : uint8_t {
  kHit = 0,       ///< served from the controller cache
  kMiss = 1,      ///< went to an enclosure that was On
  kSpunDown = 2,  ///< went to an enclosure that was Off / SpinningUp
};
inline constexpr int kNumOutcomes = 3;

inline const char* IoOutcomeName(uint8_t outcome) {
  switch (outcome) {
    case 0: return "hit";
    case 1: return "miss";
    case 2: return "spun_down";
  }
  return "?";
}

inline const char* PatternSlotName(uint8_t pattern) {
  switch (pattern) {
    case 0: return "P0";
    case 1: return "P1";
    case 2: return "P2";
    case 3: return "P3";
    case 4: return "unclassified";
  }
  return "?";
}

/// \brief The full latency book of one run: one fixed-layout histogram
/// per (pattern, outcome) cell. Recording is two bounds-checked index
/// computations plus one bucket increment, cheap enough for the per-I/O
/// path; merging two books is element-wise.
class LatencyBook {
 public:
  LatencyBook() : cells_(kNumPatternSlots * kNumOutcomes) {}

  void Record(uint8_t pattern, IoOutcome outcome, int64_t latency_us) {
    if (pattern >= kNumPatternSlots) pattern = kPatternUnclassified;
    cells_[Index(pattern, static_cast<uint8_t>(outcome))].Record(latency_us);
  }

  void Merge(const LatencyBook& other) {
    for (size_t i = 0; i < cells_.size(); ++i) cells_[i].Merge(other.cells_[i]);
  }

  /// Cell-wise SubtractPrefix: turns two cumulative snapshots of one
  /// growing book into the exact per-window delta book.
  void SubtractPrefix(const LatencyBook& earlier) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].SubtractPrefix(earlier.cells_[i]);
    }
  }

  const LatencyHistogram& cell(uint8_t pattern, uint8_t outcome) const {
    return cells_[Index(pattern, outcome)];
  }
  LatencyHistogram& cell(uint8_t pattern, uint8_t outcome) {
    return cells_[Index(pattern, outcome)];
  }

  int64_t total_count() const {
    int64_t n = 0;
    for (const LatencyHistogram& h : cells_) n += h.count();
    return n;
  }

  bool operator==(const LatencyBook& other) const {
    return cells_ == other.cells_;
  }

 private:
  static size_t Index(uint8_t pattern, uint8_t outcome) {
    return static_cast<size_t>(pattern) * kNumOutcomes + outcome;
  }

  std::vector<LatencyHistogram> cells_;
};

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_LATENCY_HISTOGRAM_H_
