// Differential tests for the streaming classifier (DESIGN.md §13): the
// streaming core::PatternClassifier must produce bit-identical
// results to the frozen pre-streaming reference in
// bench/legacy_classifier.h across randomized traces — including §V-D
// sudden-change periods that end early mid-traffic, empty and quiet
// catalogs — and its published pattern table must mirror the result
// period after period.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/legacy_classifier.h"
#include "common/random.h"
#include "core/pattern_classifier.h"

namespace ecostore::core {
namespace {

constexpr SimDuration kBreakEven = 52 * kSecond;

PatternClassifier::Options ClassifierOptions() {
  PatternClassifier::Options opt;
  opt.break_even = kBreakEven;
  opt.iops_bucket = 1 * kSecond;
  return opt;
}

storage::DataItemCatalog MakeCatalog(int n_items, Xoshiro256* rng) {
  storage::DataItemCatalog catalog;
  if (n_items == 0) return catalog;
  VolumeId v = catalog.AddVolume(0);
  for (int i = 0; i < n_items; ++i) {
    auto added = catalog.AddItem(
        "item" + std::to_string(i), v,
        rng->UniformInt(int64_t{4} << 10, int64_t{64} << 20),
        storage::DataItemKind::kFile);
    EXPECT_TRUE(added.ok()) << "catalog setup failed at item " << i;
  }
  return catalog;
}

/// Geometry of one randomized case, derived from the seed. Covers quiet
/// catalogs (zero records), dense P3-heavy traffic, sparse episodic
/// traffic, unknown item ids, and §V-D-style periods that end early.
struct TraceShape {
  int n_items;
  int n_records;
  SimTime period_start;
  SimTime period_end;        ///< actual (possibly early) end
  double unknown_fraction;   ///< records aimed past the catalog
  double hot_fraction;       ///< items receiving dense (P3-ish) traffic
};

TraceShape ShapeForSeed(uint64_t seed) {
  static constexpr int kItems[] = {0, 1, 7, 64, 257};
  static constexpr int kRecords[] = {0, 40, 800, 4000};
  TraceShape shape;
  shape.n_items = kItems[seed % 5];
  shape.n_records = shape.n_items == 0 && seed % 2 == 0
                        ? 0
                        : kRecords[(seed / 5) % 4];
  shape.period_start = (seed / 20) % 2 == 0 ? 0 : 3600 * kSecond;
  SimDuration planned = 520 * kSecond;
  // §V-D: a sudden-change trigger ends the period early, at an arbitrary
  // point possibly right inside a dense burst. One case in three.
  SimDuration span = (seed / 40) % 3 == 0
                         ? (37 + static_cast<SimDuration>(seed % 400)) *
                               kSecond
                         : planned;
  shape.period_end = shape.period_start + span;
  shape.unknown_fraction = (seed / 120) % 2 == 0 ? 0.0 : 0.1;
  shape.hot_fraction = 0.2;
  return shape;
}

trace::LogicalTraceBuffer MakeTrace(const TraceShape& shape,
                                    Xoshiro256* rng) {
  trace::LogicalTraceBuffer buffer;
  std::vector<SimTime> times(static_cast<size_t>(shape.n_records));
  for (SimTime& t : times) {
    t = shape.period_start +
        rng->UniformInt(int64_t{0},
                        shape.period_end - shape.period_start - 1);
  }
  std::sort(times.begin(), times.end());
  int hot_items = std::max(
      1, static_cast<int>(shape.n_items * shape.hot_fraction));
  for (SimTime t : times) {
    trace::LogicalIoRecord rec;
    rec.time = t;
    if (shape.unknown_fraction > 0 &&
        rng->Bernoulli(shape.unknown_fraction)) {
      rec.item = static_cast<DataItemId>(
          shape.n_items + rng->UniformInt(int64_t{0}, int64_t{5}));
    } else if (shape.n_items == 0) {
      rec.item = static_cast<DataItemId>(rng->UniformInt(0, 5));
    } else if (rng->Bernoulli(0.7)) {
      // Dense traffic concentrates on the hot subset so some items stay
      // under the break-even gap for the whole period (P3).
      rec.item =
          static_cast<DataItemId>(rng->UniformInt(0, hot_items - 1));
    } else {
      rec.item = static_cast<DataItemId>(
          rng->UniformInt(0, shape.n_items - 1));
    }
    rec.size = rng->UniformInt(int64_t{512}, int64_t{1} << 20);
    rec.type = rng->Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    buffer.Append(rec);
  }
  return buffer;
}

/// Bit-identity: every field, doubles compared with operator== (the
/// streaming pipeline must reproduce the legacy arithmetic exactly, not
/// approximately — the golden replay fingerprints depend on it).
void ExpectResultsIdentical(const ClassificationResult& expected,
                            const ClassificationResult& actual,
                            const std::string& label) {
  ASSERT_EQ(expected.items.size(), actual.items.size()) << label;
  for (size_t i = 0; i < expected.items.size(); ++i) {
    const ItemClassification& e = expected.items[i];
    const ItemClassification& a = actual.items[i];
    ASSERT_EQ(e.item, a.item) << label << " item " << i;
    EXPECT_EQ(e.pattern, a.pattern) << label << " item " << i;
    EXPECT_EQ(e.size_bytes, a.size_bytes) << label << " item " << i;
    EXPECT_EQ(e.reads, a.reads) << label << " item " << i;
    EXPECT_EQ(e.writes, a.writes) << label << " item " << i;
    EXPECT_EQ(e.read_bytes, a.read_bytes) << label << " item " << i;
    EXPECT_EQ(e.write_bytes, a.write_bytes) << label << " item " << i;
    EXPECT_EQ(e.io_sequences, a.io_sequences) << label << " item " << i;
    EXPECT_EQ(e.long_interval_count, a.long_interval_count)
        << label << " item " << i;
    EXPECT_EQ(e.avg_iops, a.avg_iops) << label << " item " << i;
  }
  for (size_t p = 0; p < kNumIoPatterns; ++p) {
    EXPECT_EQ(expected.pattern_counts[p], actual.pattern_counts[p])
        << label << " pattern " << p;
  }
  EXPECT_EQ(expected.mean_long_interval, actual.mean_long_interval)
      << label;
  EXPECT_EQ(expected.p3_max_iops, actual.p3_max_iops) << label;
}

class ClassifierDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierDifferentialTest, StreamingMatchesLegacy) {
  const uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  TraceShape shape = ShapeForSeed(seed);
  storage::DataItemCatalog catalog = MakeCatalog(shape.n_items, &rng);
  trace::LogicalTraceBuffer buffer = MakeTrace(shape, &rng);

  bench::LegacyPatternClassifier legacy(ClassifierOptions());
  ClassificationResult expected = legacy.Classify(
      buffer, catalog, shape.period_start, shape.period_end);

  // Replay convenience (Classify), as tests and benches use it.
  PatternClassifier replay(ClassifierOptions());
  ClassificationResult via_replay = replay.Classify(
      buffer, catalog, shape.period_start, shape.period_end);
  ExpectResultsIdentical(expected, via_replay, "replay");

  // Streaming sink path: ingest record by record, finalise once.
  PatternClassifier streaming(ClassifierOptions());
  streaming.BeginPeriod(shape.period_start);
  for (const trace::LogicalIoRecord& rec : buffer.records()) {
    streaming.OnLogicalIo(rec);
  }
  ClassificationResult via_stream =
      streaming.Finalize(catalog, shape.period_end);
  ExpectResultsIdentical(expected, via_stream, "streaming");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierDifferentialTest,
                         ::testing::Range<uint64_t>(1, 33));

// ---------------------------------------------------------------------
// The published pattern table (the policy's PublishPlan payload) must
// mirror each period's result, across quiet and early-ended periods.
// ---------------------------------------------------------------------

class PatternTableTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PatternTableTest, PatternsMirrorResultAcrossPeriods) {
  const uint64_t seed = GetParam();
  Xoshiro256 rng(seed);
  const int n_items = 1 + static_cast<int>(seed % 2) * 96;
  storage::DataItemCatalog catalog = MakeCatalog(n_items, &rng);

  PatternClassifier classifier(ClassifierOptions());
  SimTime now = 0;
  for (int period = 0; period < 6; ++period) {
    TraceShape shape;
    shape.n_items = n_items;
    // Period 3 is quiet (every previously-active item must drop back to
    // P0 in the table); period 4 ends early (§V-D).
    shape.n_records =
        period == 3 ? 0
                    : static_cast<int>(rng.UniformInt(int64_t{20},
                                                      int64_t{600}));
    shape.period_start = now;
    SimDuration span = period == 4
                           ? (40 + static_cast<SimDuration>(
                                       rng.UniformInt(int64_t{0},
                                                      int64_t{80}))) *
                                 kSecond
                           : 520 * kSecond;
    shape.period_end = now + span;
    shape.unknown_fraction = 0.0;
    shape.hot_fraction = 0.25;
    trace::LogicalTraceBuffer buffer = MakeTrace(shape, &rng);

    classifier.BeginPeriod(shape.period_start);
    for (const trace::LogicalIoRecord& rec : buffer.records()) {
      classifier.OnLogicalIo(rec);
    }
    const ClassificationResult& result =
        classifier.Finalize(catalog, shape.period_end);

    if (period == 3) {
      EXPECT_EQ(result.pattern_counts[static_cast<size_t>(IoPattern::kP0)],
                n_items);
    }
    ASSERT_EQ(classifier.patterns().size(), result.items.size());
    for (size_t i = 0; i < result.items.size(); ++i) {
      EXPECT_EQ(classifier.patterns()[i],
                static_cast<uint8_t>(result.items[i].pattern))
          << "period " << period << " item " << i;
    }
    now = shape.period_end;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternTableTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Edge cases exercised deterministically.
// ---------------------------------------------------------------------

// The oracle's I_max series: a sample past the end clamps to the last
// bucket, and a backward jump re-buckets by division.
TEST(ClassifierEdgeTest, OracleIopsSeriesClampsLateSamples) {
  bench::IopsSeries series(0, 2 * kSecond, 1 * kSecond);
  series.AddOrdered(100 * kSecond);  // way past the end: bucket 1
  EXPECT_DOUBLE_EQ(series.MaxIops(), 1.0);
  series.AddOrdered(1500 * kMillisecond);  // bucket 1 again
  EXPECT_DOUBLE_EQ(series.MaxIops(), 2.0);
  series.AddOrdered(500 * kMillisecond);  // backward jump: bucket 0
  EXPECT_DOUBLE_EQ(series.MaxIops(), 2.0);
}

TEST(ClassifierEdgeTest, EmptyCatalogWithStrayRecords) {
  storage::DataItemCatalog catalog;  // zero items
  trace::LogicalTraceBuffer buffer;
  for (int k = 0; k < 10; ++k) {
    trace::LogicalIoRecord rec;
    rec.time = k * kSecond;
    rec.item = static_cast<DataItemId>(k % 3);  // nothing to classify
    rec.size = 4096;
    rec.type = IoType::kRead;
    buffer.Append(rec);
  }
  bench::LegacyPatternClassifier legacy(ClassifierOptions());
  PatternClassifier streaming(ClassifierOptions());
  ClassificationResult expected =
      legacy.Classify(buffer, catalog, 0, 520 * kSecond);
  streaming.BeginPeriod(0);
  for (const trace::LogicalIoRecord& rec : buffer.records()) {
    streaming.OnLogicalIo(rec);
  }
  ClassificationResult actual = streaming.Finalize(catalog, 520 * kSecond);
  ExpectResultsIdentical(expected, actual, "empty catalog");
  EXPECT_TRUE(actual.items.empty());
  EXPECT_EQ(actual.mean_long_interval, 0);
}

TEST(ClassifierEdgeTest, QuietCatalogAllP0) {
  Xoshiro256 rng(11);
  storage::DataItemCatalog catalog = MakeCatalog(50, &rng);
  trace::LogicalTraceBuffer buffer;
  bench::LegacyPatternClassifier legacy(ClassifierOptions());
  PatternClassifier streaming(ClassifierOptions());
  ClassificationResult expected =
      legacy.Classify(buffer, catalog, 0, 520 * kSecond);
  streaming.BeginPeriod(0);
  ClassificationResult actual = streaming.Finalize(catalog, 520 * kSecond);
  ExpectResultsIdentical(expected, actual, "quiet catalog");
  EXPECT_EQ(actual.pattern_counts[0], 50);
  EXPECT_EQ(actual.mean_long_interval, 520 * kSecond);
}

TEST(ClassifierEdgeTest, StateReleasedWhenP3CandidacyLost) {
  // An item with dense traffic then a long gap must release its bucket
  // chunks mid-period: peak state stays bounded by live candidates.
  Xoshiro256 rng(13);
  storage::DataItemCatalog catalog = MakeCatalog(1, &rng);
  PatternClassifier classifier(ClassifierOptions());
  classifier.BeginPeriod(0);
  trace::LogicalIoRecord rec;
  rec.item = 0;
  rec.size = 4096;
  rec.type = IoType::kRead;
  for (int k = 0; k < 5000; ++k) {
    rec.time = k * (kSecond / 10);
    classifier.OnLogicalIo(rec);
  }
  size_t dense_state = classifier.state_bytes();
  // Long gap: candidacy lost, chunks go back to the free list.
  rec.time = 5000 * (kSecond / 10) + 2 * kBreakEven;
  classifier.OnLogicalIo(rec);
  ClassificationResult result =
      classifier.Finalize(catalog, rec.time + kSecond);
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP1);
  EXPECT_GT(classifier.peak_state_bytes(), 0u);
  EXPECT_GE(classifier.peak_state_bytes(), dense_state);

  // A second dense period must reuse the pooled chunks, not grow the
  // pool: the high-water mark is set once.
  classifier.BeginPeriod(rec.time + kSecond);
  for (int k = 0; k < 5000; ++k) {
    trace::LogicalIoRecord r2 = rec;
    r2.time = rec.time + kSecond + k * (kSecond / 10);
    classifier.OnLogicalIo(r2);
  }
  EXPECT_LE(classifier.state_bytes(), classifier.peak_state_bytes());
}

}  // namespace
}  // namespace ecostore::core
