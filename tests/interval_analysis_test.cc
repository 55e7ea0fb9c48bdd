// Unit tests for Long Interval / I/O Sequence extraction (paper §II-C.2,
// Fig. 1, §IV-B Steps 1-2). The split is folded into
// PatternClassifier::Classify per item; each case classifies a one-item
// catalog over [0, period_end] and checks the item's split.

#include <gtest/gtest.h>

#include <vector>

#include "core/pattern_classifier.h"

namespace ecostore::core {
namespace {

constexpr SimDuration kBreakEven = 52 * kSecond;

struct Io {
  double seconds;
  IoType type;
};
Io R(double seconds) { return {seconds, IoType::kRead}; }
Io W(double seconds) { return {seconds, IoType::kWrite}; }

/// The one item's classification; the period's mean Long Interval is the
/// item's own, since it is the only item.
struct OneItem {
  ItemClassification cls;
  SimDuration mean_long_interval = 0;
};

OneItem ClassifyOneItem(const std::vector<Io>& ios, SimTime period_end) {
  storage::DataItemCatalog catalog;
  VolumeId v = catalog.AddVolume(0);
  DataItemId item =
      catalog.AddItem("item", v, 1 << 20, storage::DataItemKind::kFile)
          .value();
  trace::LogicalTraceBuffer buffer;
  for (const Io& io : ios) {
    trace::LogicalIoRecord rec;
    rec.time = FromSeconds(io.seconds);
    rec.item = item;
    rec.size = 4096;
    rec.type = io.type;
    buffer.Append(rec);
  }
  PatternClassifier classifier(
      PatternClassifier::Options{kBreakEven, 1 * kSecond});
  ClassificationResult result =
      classifier.Classify(buffer, catalog, 0, period_end);
  return OneItem{result.items.at(static_cast<size_t>(item)),
                 result.mean_long_interval};
}

TEST(IntervalAnalysisTest, NoIoIsSingleLongInterval) {
  OneItem r = ClassifyOneItem({}, 520 * kSecond);
  EXPECT_EQ(r.cls.long_interval_count, 1);
  EXPECT_EQ(r.cls.io_sequences, 0);
  EXPECT_EQ(r.cls.reads, 0);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, 520 * kSecond);
}

TEST(IntervalAnalysisTest, DenseIosFormOneSequence) {
  std::vector<Io> ios;
  for (int i = 0; i < 100; ++i) ios.push_back(R(i * 1.0));
  OneItem r = ClassifyOneItem(ios, FromSeconds(100));
  EXPECT_EQ(r.cls.long_interval_count, 0);
  EXPECT_EQ(r.cls.io_sequences, 1);
  EXPECT_EQ(r.cls.reads, 100);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, 0);
}

TEST(IntervalAnalysisTest, Fig1Shape) {
  // Mimics Fig. 1: sequence #1 at period start, long interval, sequence,
  // long interval, sequence, trailing long interval.
  OneItem r = ClassifyOneItem(
      {
          R(0), R(10), W(20),  // sequence 1
          R(120), R(130),      // sequence 2 after 100 s gap
          W(300),              // sequence 3 after 170 s gap
      },
      FromSeconds(520));
  EXPECT_EQ(r.cls.io_sequences, 3);
  EXPECT_EQ(r.cls.long_interval_count, 3);  // 100 s, 170 s, 220 s trailing
  EXPECT_EQ(r.cls.reads, 4);
  EXPECT_EQ(r.cls.writes, 2);
  EXPECT_EQ(r.mean_long_interval,
            (FromSeconds(100) + FromSeconds(170) + FromSeconds(220)) / 3);
}

TEST(IntervalAnalysisTest, LeadingGapCounts) {
  OneItem r = ClassifyOneItem({R(100), R(101)}, FromSeconds(110));
  EXPECT_EQ(r.cls.long_interval_count, 1);
  EXPECT_EQ(r.cls.io_sequences, 1);
  EXPECT_EQ(r.cls.reads, 2);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, FromSeconds(100));
}

TEST(IntervalAnalysisTest, GapExactlyBreakEvenIsNotLong) {
  // "longer than the break-even time" is strict.
  OneItem r = ClassifyOneItem({R(0), R(52)}, FromSeconds(52));
  EXPECT_EQ(r.cls.long_interval_count, 0);
  EXPECT_EQ(r.cls.io_sequences, 1);
  EXPECT_EQ(r.cls.reads, 2);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, 0);
}

TEST(IntervalAnalysisTest, GapJustOverBreakEvenSplits) {
  OneItem r = ClassifyOneItem({R(0), R(52.1)}, FromSeconds(52.1));
  EXPECT_EQ(r.cls.long_interval_count, 1);
  EXPECT_EQ(r.cls.io_sequences, 2);
  EXPECT_EQ(r.cls.reads, 2);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, FromSeconds(52.1));
}

TEST(IntervalAnalysisTest, LongGapSplitsSequences) {
  OneItem r = ClassifyOneItem({R(0), R(5), W(200), W(205)}, FromSeconds(205));
  EXPECT_EQ(r.cls.long_interval_count, 1);
  EXPECT_EQ(r.cls.io_sequences, 2);
  EXPECT_EQ(r.cls.reads, 2);
  EXPECT_EQ(r.cls.writes, 2);
  EXPECT_EQ(r.mean_long_interval, FromSeconds(195));
}

TEST(IntervalAnalysisTest, SingleIoAtPeriodStart) {
  OneItem r = ClassifyOneItem({R(0)}, FromSeconds(520));
  EXPECT_EQ(r.cls.long_interval_count, 1);
  EXPECT_EQ(r.cls.io_sequences, 1);
  EXPECT_EQ(r.cls.reads, 1);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, FromSeconds(520));
}

TEST(IntervalAnalysisTest, ZeroLengthPeriodWithIo) {
  OneItem r = ClassifyOneItem({R(0)}, 0);
  EXPECT_EQ(r.cls.long_interval_count, 0);
  EXPECT_EQ(r.cls.io_sequences, 1);
  EXPECT_EQ(r.cls.reads, 1);
  EXPECT_EQ(r.cls.writes, 0);
  EXPECT_EQ(r.mean_long_interval, 0);
}

}  // namespace
}  // namespace ecostore::core
