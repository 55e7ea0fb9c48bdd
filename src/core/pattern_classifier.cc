#include "core/pattern_classifier.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ecostore::core {

PatternClassifier::PatternClassifier(const Options& options)
    : options_(options), epoch_(1) {}

void PatternClassifier::BeginPeriod(SimTime period_start) {
  period_start_ = period_start;
  ingested_ = 0;
  touched_.clear();
  if (++epoch_ == 0) {
    // uint32 epoch wrapped (once per ~4G periods): invalidate eagerly so
    // epoch 1 cannot collide with surviving stamps.
    for (ItemState& st : state_) st.epoch = 0;
    epoch_ = 1;
  }
  // The P3-candidate chunk pool is period-local; survivors were folded by
  // the previous Finalize and stale per-item heads die with their epoch.
  pool_.clear();
  free_head_ = -1;
}

PatternClassifier::ItemState& PatternClassifier::StateFor(size_t idx) {
  if (idx >= state_.size()) {
    state_.resize(std::max(idx + 1, state_.size() * 2));
  }
  ItemState& st = state_[idx];
  if (st.epoch != epoch_) {
    st = ItemState{};
    st.last_time = period_start_;
    st.epoch = epoch_;
    touched_.push_back(idx);
  }
  return st;
}

void PatternClassifier::AppendBucket(ItemState* st, int64_t bucket) {
  auto b32 = static_cast<int32_t>(
      std::min<int64_t>(bucket, std::numeric_limits<int32_t>::max()));
  if (st->chunk_tail >= 0) {
    IopsChunk& tail = pool_[static_cast<size_t>(st->chunk_tail)];
    if (tail.n > 0 && tail.bucket[tail.n - 1] == b32) {
      tail.count[tail.n - 1]++;
      return;
    }
    if (tail.n < IopsChunk::kEntries) {
      tail.bucket[tail.n] = b32;
      tail.count[tail.n] = 1;
      tail.n++;
      return;
    }
  }
  int32_t idx;
  if (free_head_ >= 0) {
    idx = free_head_;
    free_head_ = pool_[static_cast<size_t>(idx)].next;
  } else {
    idx = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  IopsChunk& chunk = pool_[static_cast<size_t>(idx)];
  chunk.next = -1;
  chunk.n = 1;
  chunk.bucket[0] = b32;
  chunk.count[0] = 1;
  if (st->chunk_tail >= 0) {
    pool_[static_cast<size_t>(st->chunk_tail)].next = idx;
  } else {
    st->chunk_head = idx;
  }
  st->chunk_tail = idx;
}

void PatternClassifier::ReleaseChunks(ItemState* st) {
  if (st->chunk_head < 0) return;
  pool_[static_cast<size_t>(st->chunk_tail)].next = free_head_;
  free_head_ = st->chunk_head;
  st->chunk_head = -1;
  st->chunk_tail = -1;
}

void PatternClassifier::OnLogicalIo(const trace::LogicalIoRecord& rec) {
  if (rec.item < 0) return;  // unknown item: not classifiable
  ItemState& st = StateFor(static_cast<size_t>(rec.item));
  assert(rec.time >= st.last_time);
  SimDuration gap = rec.time - st.last_time;
  bool long_gap = gap > options_.break_even;
  if (long_gap) {
    st.long_intervals++;
    st.long_interval_sum += gap;
    // The item can no longer classify P3 this period; its bucket runs are
    // dead weight, so recycle them now (memory stays O(live candidates)).
    ReleaseChunks(&st);
  }
  // A new I/O Sequence starts at the item's first I/O and after every
  // Long Interval (the two coincide when the leading gap is long).
  if (st.reads + st.writes == 0 || long_gap) {
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
  if (st.long_intervals == 0) {
    // Still a P3 candidate: bucket this I/O for the I_max series.
    AppendBucket(&st, (rec.time - period_start_) / options_.iops_bucket);
  }
  ingested_++;
}

void PatternClassifier::WriteQuietRow(
    size_t i, const storage::DataItemCatalog& catalog) {
  ItemClassification& cls = result_.items[i];
  cls.item = static_cast<DataItemId>(i);
  // Item sizes are immutable after AddItem (storage/data_item.cc), so a
  // quiet row never goes stale — the whole persistent-row design leans on
  // this.
  cls.size_bytes = catalog.item(cls.item).size_bytes;
  cls.reads = 0;
  cls.writes = 0;
  cls.read_bytes = 0;
  cls.write_bytes = 0;
  cls.io_sequences = 0;
  cls.avg_iops = 0.0;
  cls.long_interval_count = 1;
  cls.pattern = IoPattern::kP0;
}

const ClassificationResult& PatternClassifier::Finalize(
    const storage::DataItemCatalog& catalog, SimTime period_end) {
  assert(period_end >= period_start_);
  const size_t n_items = catalog.item_count();
  if (state_.size() < n_items) state_.resize(n_items);

  // Dirty tracking mirrors the pre-streaming classifier: disabled for the
  // period in which the catalog changed size (evaluated before the row
  // table catches up).
  const bool track_dirty = has_previous_ && prev_patterns_.size() == n_items;

  if (n_items < init_items_) {
    // Catalog shrank (no current workload does this): rebuild the rows.
    result_.items.clear();
    resident_.clear();
    init_items_ = 0;
  }
  if (init_items_ < n_items) {
    // First finalise, or the catalog grew: write quiet rows once for the
    // new range. This is the only O(catalog) pass the classifier ever
    // does; quiet rows have no period-dependent field, so they are
    // carried verbatim until the item shows activity.
    result_.items.resize(n_items);
    prev_patterns_.resize(n_items, static_cast<uint8_t>(IoPattern::kP0));
    for (size_t i = init_items_; i < n_items; ++i) WriteQuietRow(i, catalog);
    init_items_ = n_items;
  }
  prev_patterns_.resize(n_items);

  result_.pattern_counts = {0, 0, 0, 0};
  result_.p3_max_iops = 0.0;
  result_.mean_long_interval = 0;

  const SimDuration full_period = period_end - period_start_;
  const double period_seconds = ToSeconds(full_period);
  const SimDuration width = options_.iops_bucket;
  // Bucket count of the legacy IopsSeries(start, max(end, start+1), w).
  auto n_buckets = static_cast<size_t>(
      (std::max(period_end, period_start_ + 1) - period_start_ + width - 1) /
      width);
  if (n_buckets < 1) n_buckets = 1;

  // The frontier: items touched this period plus rows still carrying
  // last period's activity (they must be reset to quiet form). Sorted
  // merge keeps every downstream artifact — rows and the dirty set — in
  // ascending item order. Ingest may have touched indices beyond the
  // catalog (unknown items); they stay out of the frontier until the
  // catalog covers them.
  std::sort(touched_.begin(), touched_.end());
  auto ta = touched_.begin();
  auto te = std::lower_bound(touched_.begin(), touched_.end(), n_items);
  auto ra = resident_.begin();
  auto re = resident_.end();
  frontier_.clear();
  while (ta != te && ra != re) {
    if (*ta < *ra) {
      frontier_.push_back(*ta++);
    } else if (*ra < *ta) {
      frontier_.push_back(*ra++);
    } else {
      frontier_.push_back(*ta++);
      ++ra;
    }
  }
  frontier_.insert(frontier_.end(), ta, te);
  frontier_.insert(frontier_.end(), ra, re);
  const size_t n_front = frontier_.size();

  // One pass over the frontier. Every reduction is integral, so the
  // quiet remainder (rows outside the frontier) joins in closed form:
  // n_quiet single full-period Long Intervals and n_quiet P0s, the same
  // integers a per-item pass would add one by one.
  const auto n_quiet = static_cast<int64_t>(n_items - n_front);
  result_.pattern_counts[static_cast<size_t>(IoPattern::kP0)] += n_quiet;
  int64_t li_sum = n_quiet * full_period;
  int64_t li_count = n_quiet;
  bool any_p3 = false;
  dirty_.clear();
  for (const size_t i : frontier_) {
    ItemClassification& cls = result_.items[i];
    const ItemState& st = state_[i];
    IoPattern pattern;
    if (st.epoch != epoch_ || st.reads + st.writes == 0) {
      // Resident last period, quiet now: the row returns to its quiet
      // form (single full-period Long Interval, P0) and leaves the
      // frontier after this finalise.
      cls.reads = 0;
      cls.writes = 0;
      cls.read_bytes = 0;
      cls.write_bytes = 0;
      cls.io_sequences = 0;
      cls.avg_iops = 0.0;
      cls.long_interval_count = 1;
      li_sum += full_period;
      li_count++;
      pattern = IoPattern::kP0;
    } else {
      cls.reads = st.reads;
      cls.writes = st.writes;
      cls.read_bytes = st.read_bytes;
      cls.write_bytes = st.write_bytes;
      cls.io_sequences = st.sequences;
      int64_t item_li_count = st.long_intervals;
      int64_t item_li_sum = st.long_interval_sum;
      SimDuration trailing = period_end - st.last_time;
      if (trailing > options_.break_even) {
        item_li_count++;
        item_li_sum += trailing;
      }
      cls.long_interval_count = item_li_count;
      cls.avg_iops =
          period_seconds > 0
              ? static_cast<double>(cls.total_ios()) / period_seconds
              : 0.0;
      li_sum += item_li_sum;
      li_count += item_li_count;
      // Paper §IV-B Step 3.
      if (item_li_count == 0) {
        pattern = IoPattern::kP3;
        if (!any_p3) {
          any_p3 = true;
          p3_buckets_.assign(n_buckets, 0);
        }
        for (int32_t c = st.chunk_head; c >= 0;
             c = pool_[static_cast<size_t>(c)].next) {
          const IopsChunk& chunk = pool_[static_cast<size_t>(c)];
          for (int32_t k = 0; k < chunk.n; ++k) {
            auto b = static_cast<size_t>(chunk.bucket[k]);
            if (b >= n_buckets) b = n_buckets - 1;
            p3_buckets_[b] += chunk.count[k];
          }
        }
      } else if (cls.reads * 2 > cls.total_ios()) {
        pattern = IoPattern::kP1;
      } else {
        pattern = IoPattern::kP2;
      }
    }
    cls.pattern = pattern;
    result_.pattern_counts[static_cast<size_t>(pattern)]++;
    auto pb = static_cast<uint8_t>(pattern);
    if (track_dirty && prev_patterns_[i] != pb) {
      dirty_.push_back(static_cast<DataItemId>(i));
    }
    prev_patterns_[i] = pb;
  }
  if (li_count > 0) {
    // Long-Interval sums are exact in int64 µs and below 2^53 in every
    // supported domain, so this division reproduces the legacy flat
    // double accumulation bit-for-bit (DESIGN.md §13).
    result_.mean_long_interval = static_cast<SimDuration>(
        static_cast<double>(li_sum) / static_cast<double>(li_count));
  }
  if (any_p3) {
    int64_t best = 0;
    for (int64_t c : p3_buckets_) best = std::max(best, c);
    result_.p3_max_iops = static_cast<double>(best) / ToSeconds(width);
  }

  // Next period's frontier seed: exactly the rows left non-quiet, which
  // are the touched in-catalog items (an ingested I/O always leaves
  // reads+writes > 0).
  resident_.assign(touched_.begin(), te);

  has_previous_ = true;
  NotePeak();
  return result_;
}

void PatternClassifier::Finalize(const storage::DataItemCatalog& catalog,
                                 SimTime period_end,
                                 ClassificationResult* result) {
  *result = Finalize(catalog, period_end);
}

ClassificationResult PatternClassifier::Classify(
    const trace::LogicalTraceBuffer& buffer,
    const storage::DataItemCatalog& catalog, SimTime period_start,
    SimTime period_end) {
  BeginPeriod(period_start);
  for (const trace::LogicalIoRecord& rec : buffer.records()) {
    OnLogicalIo(rec);
  }
  return Finalize(catalog, period_end);
}

size_t PatternClassifier::state_bytes() const {
  size_t bytes = state_.capacity() * sizeof(ItemState) +
                 pool_.capacity() * sizeof(IopsChunk) +
                 prev_patterns_.capacity() * sizeof(uint8_t) +
                 dirty_.capacity() * sizeof(DataItemId) +
                 result_.items.capacity() * sizeof(ItemClassification) +
                 (touched_.capacity() + resident_.capacity() +
                  frontier_.capacity()) *
                     sizeof(size_t) +
                 p3_buckets_.capacity() * sizeof(int64_t);
  return bytes;
}

void PatternClassifier::NotePeak() {
  peak_state_bytes_ = std::max(peak_state_bytes_, state_bytes());
}

}  // namespace ecostore::core
