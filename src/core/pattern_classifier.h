#ifndef ECOSTORE_CORE_PATTERN_CLASSIFIER_H_
#define ECOSTORE_CORE_PATTERN_CLASSIFIER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/interval_analysis.h"
#include "core/io_pattern.h"
#include "monitor/io_sink.h"
#include "storage/data_item.h"
#include "trace/trace_buffer.h"

namespace ecostore::core {

/// Classification and period statistics of one data item. Plain data —
/// a quiet item carries no heap allocation, so a fleet-scale result is
/// one flat array (DESIGN.md §13).
struct ItemClassification {
  DataItemId item = kInvalidDataItem;
  IoPattern pattern = IoPattern::kP0;
  int64_t size_bytes = 0;

  /// I/O counts within the item's I/O Sequences (== all its I/Os).
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t read_bytes = 0;
  int64_t write_bytes = 0;

  /// Number of I/O Sequences (paper §IV-B): one starts at the item's
  /// first I/O of the period and after every Long Interval. 0 for an
  /// untouched item.
  int64_t io_sequences = 0;

  /// Mean IOPS of the item over the full period.
  double avg_iops = 0.0;

  /// Number of Long Intervals observed (an untouched item has exactly
  /// one, spanning the whole period). The interval values themselves are
  /// folded into ClassificationResult::mean_long_interval.
  int64_t long_interval_count = 0;

  int64_t total_ios() const { return reads + writes; }
};

/// Result of classifying one monitoring period.
struct ClassificationResult {
  /// One entry per catalog item (items with no I/O appear as P0).
  std::vector<ItemClassification> items;

  /// Count of items per pattern (index by IoPattern).
  std::array<int64_t, kNumIoPatterns> pattern_counts = {0, 0, 0, 0};

  /// Maximum over time buckets of the aggregate IOPS of all P3 items:
  /// I_max of paper §IV-C Step 1.
  double p3_max_iops = 0.0;

  /// Mean of all items' Long Intervals (input of the monitoring-period
  /// adaptation, paper §IV-H); 0 when no Long Intervals were observed.
  SimDuration mean_long_interval = 0;

  double PatternFraction(IoPattern p) const {
    int64_t total = 0;
    for (int64_t c : pattern_counts) total += c;
    return total > 0 ? static_cast<double>(
                           pattern_counts[static_cast<size_t>(p)]) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// \brief Streaming determination of the Logical I/O Pattern of every data
/// item over one monitoring period (paper §IV-B, DESIGN.md §13).
///
/// Classification runs continuously: interval analysis is folded into
/// ingest, so each logical I/O updates a compact per-item running state
/// (Long-Interval count/sum, I/O-Sequence count, byte counters) the moment
/// the monitor observes it — through the ApplicationMonitor sink
/// (OnLogicalIo), or, in tests and benches, by replaying a trace buffer
/// (Classify). The period end therefore only finalises trailing
/// intervals, buckets the P3 IOPS series for I_max, and emits the result
/// — and no per-period trace needs to be retained.
///
/// The result table is owned by the classifier and maintained
/// incrementally: a quiet item's row has no field that depends on the
/// period (counters zero, one full-period Long Interval, avg_iops 0, size
/// from the immutable catalog entry), so rows are written once and a
/// period end only rewrites the *frontier* — items touched this period
/// plus items still carrying last period's activity. The untouched
/// remainder contributes to the aggregates in closed form (all integral,
/// so regrouping is exact). Period-end cost thus scales with activity,
/// not catalog size.
///
/// Finalisation is one serial pass over the (item-ordered) frontier.
/// Every reduction is integral, so the result is bit-identical to the
/// pre-streaming classifier preserved in bench/legacy_classifier.h (the
/// differential oracle).
///
/// Across periods the classifier keeps the previous pattern table and
/// emits the dirty set — items whose pattern changed, which includes
/// newly-quiet P3s — which keeps the management function's enclosure-of
/// cache current without an O(catalog) diff.
///
/// Not safe for concurrent ingest; one instance serves one experiment
/// (see DESIGN.md §5).
class PatternClassifier : public monitor::LogicalIoSink {
 public:
  struct Options {
    /// Break-even time of the enclosures (paper Table II: 52 s).
    SimDuration break_even = 52 * kSecond;
    /// Bucket width for the aggregate P3 IOPS series used for I_max.
    SimDuration iops_bucket = 1 * kSecond;
  };

  explicit PatternClassifier(const Options& options);

  const Options& options() const { return options_; }

  // --- Streaming interface ---

  /// Starts a new monitoring period at `period_start`. Per-item state is
  /// invalidated lazily (epoch-stamped), so this is O(1) in the catalog.
  void BeginPeriod(SimTime period_start);

  /// Ingests one logical I/O of the current period (monitor sink entry
  /// point). Records must arrive in non-decreasing time order per item.
  void OnLogicalIo(const trace::LogicalIoRecord& rec) override;

  /// Finalises the current period at `period_end`: trailing intervals,
  /// patterns, P3 I_max, mean Long Interval, dirty set. Returns the
  /// classifier-owned result table (valid until the next Finalize; one
  /// flat row per catalog item). Does not start the next period — call
  /// BeginPeriod() afterwards. Idempotent over the same ingested state.
  const ClassificationResult& Finalize(const storage::DataItemCatalog& catalog,
                                       SimTime period_end);

  /// Snapshot variant: finalises and copies the result into `result`.
  /// O(catalog) for the copy — tests and small-scale callers only.
  void Finalize(const storage::DataItemCatalog& catalog, SimTime period_end,
                ClassificationResult* result);

  // --- Replay convenience (tests and benches) ---

  /// BeginPeriod + ingest of `buffer` + Finalize in one call. Replaces
  /// any in-flight streaming period.
  ClassificationResult Classify(const trace::LogicalTraceBuffer& buffer,
                                const storage::DataItemCatalog& catalog,
                                SimTime period_start, SimTime period_end);

  // --- Cross-period dirty tracking ---

  /// True once a previous period's pattern table (of the same catalog
  /// size) exists, i.e. dirty_items() is meaningful.
  bool has_previous() const { return has_previous_; }

  /// Items whose pattern changed in the last Finalize() relative to the
  /// period before, ascending by id. Empty when !has_previous().
  const std::vector<DataItemId>& dirty_items() const { return dirty_; }

  /// Pattern table of the last Finalize() (IoPattern as uint8_t, indexed
  /// by item id).
  const std::vector<uint8_t>& patterns() const { return prev_patterns_; }

  // --- Introspection ---

  SimTime period_start() const { return period_start_; }
  int64_t ingested() const { return ingested_; }

  /// Bytes of classifier-owned running state right now (per-item states,
  /// P3 bucket chunk pool, pattern table, dirty list).
  size_t state_bytes() const;
  /// High-water mark of state_bytes() over the classifier's lifetime.
  size_t peak_state_bytes() const { return peak_state_bytes_; }

 private:
  /// Per-item running state, updated per ingested I/O. 64 bytes: the
  /// whole fleet working set stays one cache line per item.
  struct ItemState {
    SimTime last_time = 0;        ///< previous I/O time
    int64_t read_bytes = 0;
    int64_t write_bytes = 0;
    int64_t long_interval_sum = 0;  ///< µs; exact in int64
    int32_t reads = 0;
    int32_t writes = 0;
    int32_t sequences = 0;        ///< I/O Sequences started so far
    int32_t long_intervals = 0;   ///< Long Intervals closed so far
    int32_t chunk_head = -1;      ///< P3-candidate bucket run list
    int32_t chunk_tail = -1;
    uint32_t epoch = 0;           ///< valid iff == epoch_
  };

  /// Chunk of (bucket, count) runs for one P3 candidate's IOPS series.
  /// Consecutive I/Os in one bucket extend the tail run, so storage is
  /// bounded by bucket transitions, not I/Os.
  struct IopsChunk {
    static constexpr int kEntries = 6;
    int32_t next = -1;
    int32_t n = 0;
    int32_t bucket[kEntries];
    int32_t count[kEntries];
  };

  ItemState& StateFor(size_t idx);
  void AppendBucket(ItemState* st, int64_t bucket);
  void ReleaseChunks(ItemState* st);
  void WriteQuietRow(size_t i, const storage::DataItemCatalog& catalog);
  void NotePeak();

  Options options_;
  SimTime period_start_ = 0;
  uint32_t epoch_ = 0;
  int64_t ingested_ = 0;

  std::vector<ItemState> state_;
  std::vector<IopsChunk> pool_;
  int32_t free_head_ = -1;

  bool has_previous_ = false;
  std::vector<uint8_t> prev_patterns_;
  std::vector<DataItemId> dirty_;

  /// Persistent result table (see class comment): rows beyond the
  /// frontier are quiet and carried verbatim across periods.
  ClassificationResult result_;
  size_t init_items_ = 0;          ///< rows [0, init_items_) initialised
  std::vector<size_t> touched_;    ///< first-touch item indices, this period
  std::vector<size_t> resident_;   ///< sorted: rows currently non-quiet
  std::vector<size_t> frontier_;   ///< scratch: touched ∪ resident, sorted

  std::vector<int64_t> p3_buckets_;  ///< scratch: aggregate P3 IOPS series
  size_t peak_state_bytes_ = 0;
};

}  // namespace ecostore::core

#endif  // ECOSTORE_CORE_PATTERN_CLASSIFIER_H_
