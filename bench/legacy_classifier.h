#ifndef ECOSTORE_BENCH_LEGACY_CLASSIFIER_H_
#define ECOSTORE_BENCH_LEGACY_CLASSIFIER_H_

// The pre-streaming PatternClassifier (PRs 1-7), preserved verbatim as
// the differential oracle for the streaming classifier (DESIGN.md §13) —
// the same discipline as bench/legacy_planner.h for the indexed planners.
//
// Behaviourally frozen: per period it replays the whole captured
// LogicalTraceBuffer in one streaming pass against per-item scratch,
// materialises every item's Long-Interval list in a per-item vector,
// accumulates the mean Long Interval as a flat double sum in item order,
// and runs a second trace pass to bucket the P3 IOPS series for I_max.
// Its per-period cost is O(trace + catalog) with one heap allocation per
// episodic item — the cost profile the streaming pipeline removes. Only
// the result container changed with the compaction of
// core::ItemClassification: the interval values live in local scratch
// here and the emitted count/mean are computed exactly as before. The
// I_max bucket series (IopsSeries below) lives here too: the library's
// streaming classifier folds the same arithmetic into its per-item
// bucket runs, so this is the series' only copy.
//
// Do not optimise this file; it is a reference, not a hot path.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "core/pattern_classifier.h"
#include "storage/data_item.h"
#include "trace/trace_buffer.h"

namespace ecostore::bench {

/// \brief Time-bucketed IOPS series of the P3 items, used to compute
/// I_max (paper §IV-C Step 1). Buckets are fixed-width spans of
/// `bucket_width`; the IOPS of a bucket is its I/O count divided by the
/// bucket width in seconds. Samples past the end clamp to the last
/// bucket; samples before the start are dropped.
class IopsSeries {
 public:
  IopsSeries(SimTime start, SimTime end, SimDuration bucket_width)
      : start_(start), bucket_width_(bucket_width) {
    assert(end >= start);
    assert(bucket_width > 0);
    size_t buckets =
        static_cast<size_t>((end - start + bucket_width - 1) / bucket_width);
    counts_.assign(std::max<size_t>(buckets, 1), 0);
    cursor_end_ = start_ + bucket_width_;
  }

  /// Optimised for times arriving in (mostly) non-decreasing order: an
  /// internal bucket cursor advances instead of dividing, and only a
  /// backward time jump falls back to a division. Bulk-loading a
  /// time-ordered trace therefore costs no 64-bit division per event.
  void AddOrdered(SimTime t, int64_t ios = 1) {
    if (t < start_) return;
    if (t < cursor_end_ - bucket_width_) {
      // Backward jump before the cursor's bucket: recompute by division.
      size_t bucket = static_cast<size_t>((t - start_) / bucket_width_);
      if (bucket >= counts_.size()) bucket = counts_.size() - 1;
      cursor_ = bucket;
      cursor_end_ =
          start_ + static_cast<SimDuration>(bucket + 1) * bucket_width_;
    } else {
      while (t >= cursor_end_ && cursor_ + 1 < counts_.size()) {
        cursor_++;
        cursor_end_ += bucket_width_;
      }
    }
    counts_[cursor_] += ios;
  }

  /// Maximum bucket IOPS across the series (0 when empty).
  double MaxIops() const {
    int64_t best = 0;
    for (int64_t c : counts_) best = std::max(best, c);
    return static_cast<double>(best) / ToSeconds(bucket_width_);
  }

 private:
  SimTime start_;
  SimDuration bucket_width_;
  std::vector<int64_t> counts_;
  /// AddOrdered() cursor: current bucket and its exclusive end time.
  size_t cursor_ = 0;
  SimTime cursor_end_ = 0;
};

class LegacyPatternClassifier {
 public:
  using Options = core::PatternClassifier::Options;

  explicit LegacyPatternClassifier(const Options& options)
      : options_(options) {}

  const Options& options() const { return options_; }

  core::ClassificationResult Classify(
      const trace::LogicalTraceBuffer& buffer,
      const storage::DataItemCatalog& catalog, SimTime period_start,
      SimTime period_end) const {
    assert(period_end >= period_start);
    core::ClassificationResult result;
    const size_t n_items = catalog.item_count();
    result.items.resize(n_items);

    // One streaming pass over the trace, which must be time-ordered per
    // item. Per item, a gap between consecutive I/Os (including the
    // leading gap from the period start) strictly longer than the
    // break-even time is a Long Interval (paper §IV-B Steps 1-2).
    Scratch& s = scratch_;
    s.state.assign(n_items, ItemState{period_start, 0, 0, 0, 0, 0});
    s.long_intervals.resize(n_items);
    for (std::vector<SimDuration>& v : s.long_intervals) v.clear();
    for (const trace::LogicalIoRecord& rec : buffer.records()) {
      if (rec.item < 0 || static_cast<size_t>(rec.item) >= n_items) {
        continue;  // unknown item: not classifiable
      }
      auto idx = static_cast<size_t>(rec.item);
      ItemState& st = s.state[idx];
      assert(rec.time >= st.last_time);
      SimDuration gap = rec.time - st.last_time;
      if (gap > options_.break_even) {
        s.long_intervals[idx].push_back(gap);
      }
      if (st.reads + st.writes == 0 || gap > options_.break_even) {
        st.sequences++;
      }
      if (rec.is_read()) {
        st.reads++;
        st.read_bytes += rec.size;
      } else {
        st.writes++;
        st.write_bytes += rec.size;
      }
      st.last_time = rec.time;
    }

    double period_seconds = ToSeconds(period_end - period_start);
    double long_interval_sum = 0.0;
    int64_t long_interval_count = 0;
    s.is_p3.assign(n_items, 0);
    bool any_p3 = false;

    for (size_t i = 0; i < n_items; ++i) {
      const ItemState& st = s.state[i];
      std::vector<SimDuration>& intervals = s.long_intervals[i];
      core::ItemClassification& cls = result.items[i];
      cls.item = static_cast<DataItemId>(i);
      cls.size_bytes = catalog.item(cls.item).size_bytes;
      cls.reads = st.reads;
      cls.writes = st.writes;
      cls.read_bytes = st.read_bytes;
      cls.write_bytes = st.write_bytes;
      cls.io_sequences = st.sequences;

      if (cls.total_ios() == 0) {
        // An untouched item has the single full-period Long Interval.
        intervals.push_back(period_end - period_start);
      } else {
        SimDuration trailing = period_end - st.last_time;
        if (trailing > options_.break_even) {
          intervals.push_back(trailing);
        }
      }
      cls.avg_iops =
          period_seconds > 0
              ? static_cast<double>(cls.total_ios()) / period_seconds
              : 0.0;
      cls.long_interval_count = static_cast<int64_t>(intervals.size());

      for (SimDuration li : intervals) {
        long_interval_sum += static_cast<double>(li);
        long_interval_count++;
      }

      // Paper §IV-B Step 3.
      if (cls.total_ios() == 0) {
        cls.pattern = core::IoPattern::kP0;
      } else if (intervals.empty()) {
        cls.pattern = core::IoPattern::kP3;
        s.is_p3[i] = 1;
        any_p3 = true;
      } else if (cls.reads * 2 > cls.total_ios()) {
        cls.pattern = core::IoPattern::kP1;
      } else {
        cls.pattern = core::IoPattern::kP2;
      }
      result.pattern_counts[static_cast<size_t>(cls.pattern)]++;
    }

    if (long_interval_count > 0) {
      result.mean_long_interval = static_cast<SimDuration>(
          long_interval_sum / static_cast<double>(long_interval_count));
    }

    // Aggregate IOPS series of the P3 items -> I_max (paper §IV-C Step 1).
    // Second pass over the trace.
    if (any_p3) {
      IopsSeries p3_series(
          period_start, std::max(period_end, period_start + 1),
          options_.iops_bucket);
      for (const trace::LogicalIoRecord& rec : buffer.records()) {
        if (rec.item < 0 || static_cast<size_t>(rec.item) >= n_items) {
          continue;
        }
        if (s.is_p3[static_cast<size_t>(rec.item)]) {
          p3_series.AddOrdered(rec.time);
        }
      }
      result.p3_max_iops = p3_series.MaxIops();
    }
    return result;
  }

 private:
  struct ItemState {
    SimTime last_time = 0;
    int32_t reads = 0;
    int32_t writes = 0;
    int32_t sequences = 0;
    int64_t read_bytes = 0;
    int64_t write_bytes = 0;
  };

  struct Scratch {
    std::vector<ItemState> state;
    /// One Long-Interval vector per item — the per-item heap allocation
    /// the compacted result type removed.
    std::vector<std::vector<SimDuration>> long_intervals;
    std::vector<uint8_t> is_p3;
  };

  Options options_;
  mutable Scratch scratch_;
};

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_LEGACY_CLASSIFIER_H_
