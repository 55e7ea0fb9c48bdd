// Unit + property tests for the P0-P3 classifier (paper §IV-B).

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/pattern_classifier.h"

namespace ecostore::core {
namespace {

constexpr SimTime kPeriodEnd = 520 * kSecond;

class ClassifierFixture : public ::testing::Test {
 protected:
  ClassifierFixture()
      : classifier_(PatternClassifier::Options{52 * kSecond, 1 * kSecond}) {
    VolumeId v = catalog_.AddVolume(0);
    for (int i = 0; i < 4; ++i) {
      items_.push_back(catalog_
                           .AddItem("item" + std::to_string(i), v, 1 << 20,
                                    storage::DataItemKind::kFile)
                           .value());
    }
  }

  void Add(DataItemId item, double seconds, IoType type) {
    trace::LogicalIoRecord rec;
    rec.time = FromSeconds(seconds);
    rec.item = item;
    rec.size = 4096;
    rec.type = type;
    buffer_.Append(rec);
  }

  ClassificationResult Classify() {
    return classifier_.Classify(buffer_, catalog_, 0, kPeriodEnd);
  }

  storage::DataItemCatalog catalog_;
  trace::LogicalTraceBuffer buffer_;
  PatternClassifier classifier_;
  std::vector<DataItemId> items_;
};

TEST_F(ClassifierFixture, NoIoIsP0) {
  auto result = Classify();
  for (const auto& cls : result.items) {
    EXPECT_EQ(cls.pattern, IoPattern::kP0);
  }
  EXPECT_EQ(result.pattern_counts[0], 4);
  EXPECT_DOUBLE_EQ(result.PatternFraction(IoPattern::kP0), 1.0);
}

TEST_F(ClassifierFixture, ReadMostlyEpisodicIsP1) {
  Add(items_[0], 10, IoType::kRead);
  Add(items_[0], 11, IoType::kRead);
  Add(items_[0], 12, IoType::kWrite);
  auto result = Classify();
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP1);
  EXPECT_EQ(result.items[0].reads, 2);
  EXPECT_EQ(result.items[0].writes, 1);
}

TEST_F(ClassifierFixture, WriteHeavyEpisodicIsP2) {
  Add(items_[0], 10, IoType::kWrite);
  Add(items_[0], 11, IoType::kWrite);
  Add(items_[0], 12, IoType::kRead);
  auto result = Classify();
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP2);
}

TEST_F(ClassifierFixture, ExactlyHalfReadsIsP2) {
  // Paper: P1 requires reads *larger than* 50%.
  Add(items_[0], 10, IoType::kRead);
  Add(items_[0], 11, IoType::kWrite);
  auto result = Classify();
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP2);
}

TEST_F(ClassifierFixture, ContinuousTrafficIsP3) {
  // I/O every 20 s: no gap ever exceeds 52 s.
  for (double t = 0; t < ToSeconds(kPeriodEnd); t += 20) {
    Add(items_[0], t, IoType::kRead);
  }
  auto result = Classify();
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP3);
  EXPECT_EQ(result.items[0].long_interval_count, 0);
}

TEST_F(ClassifierFixture, AvgIopsComputed) {
  for (double t = 0; t < 520; t += 1) Add(items_[0], t, IoType::kRead);
  auto result = Classify();
  EXPECT_NEAR(result.items[0].avg_iops, 1.0, 0.01);
}

TEST_F(ClassifierFixture, P3MaxIopsAggregatesOnlyP3Items) {
  // Item 0: P3 at 2 IOPS; item 1: P3 at 3 IOPS; item 2: episodic P1.
  for (double t = 0; t < 520; t += 0.5) Add(items_[0], t, IoType::kRead);
  for (double t = 0; t < 520; t += 1.0 / 3) Add(items_[1], t, IoType::kRead);
  Add(items_[2], 100, IoType::kRead);
  auto result = Classify();
  EXPECT_EQ(result.items[0].pattern, IoPattern::kP3);
  EXPECT_EQ(result.items[1].pattern, IoPattern::kP3);
  EXPECT_EQ(result.items[2].pattern, IoPattern::kP1);
  EXPECT_NEAR(result.p3_max_iops, 5.0, 1.0);
}

TEST_F(ClassifierFixture, MeanLongIntervalAveragesAllItems) {
  // Two active items with known long intervals plus two P0 items whose
  // full-period interval also counts.
  Add(items_[0], 260, IoType::kRead);  // two long intervals of 260 s
  Add(items_[1], 0, IoType::kRead);    // one trailing long interval 520 s
  auto result = Classify();
  // Intervals: item0: 260+260, item1: 520, items 2,3: 520 each.
  double expected = (260.0 + 260.0 + 520.0 * 3) / 5.0;
  EXPECT_NEAR(ToSeconds(result.mean_long_interval), expected, 1.0);
}

TEST_F(ClassifierFixture, UnknownItemIdsIgnored) {
  trace::LogicalIoRecord rec;
  rec.time = 0;
  rec.item = 999;
  rec.size = 4096;
  rec.type = IoType::kRead;
  buffer_.Append(rec);
  auto result = Classify();
  EXPECT_EQ(result.items.size(), 4u);
}

TEST_F(ClassifierFixture, PatternCountsSumToItemCount) {
  Add(items_[0], 10, IoType::kRead);
  for (double t = 0; t < 520; t += 10) Add(items_[1], t, IoType::kWrite);
  auto result = Classify();
  int64_t total = 0;
  for (int64_t c : result.pattern_counts) total += c;
  EXPECT_EQ(total, 4);
}

// Property: classification is a total function consistent with its
// definition, for random traces.
class ClassifierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierPropertyTest, DefinitionInvariants) {
  Xoshiro256 rng(GetParam());
  storage::DataItemCatalog catalog;
  VolumeId v = catalog.AddVolume(0);
  const int n_items = 20;
  for (int i = 0; i < n_items; ++i) {
    ASSERT_TRUE(catalog
                    .AddItem(std::string("i").append(std::to_string(i)), v,
                             1 << 20, storage::DataItemKind::kFile)
                    .ok());
  }
  trace::LogicalTraceBuffer buffer;
  std::vector<int64_t> counts(n_items, 0);
  SimTime t = 0;
  for (int k = 0; k < 2000; ++k) {
    t += rng.UniformInt(0, 2 * kSecond);
    if (t >= 520 * kSecond) break;
    trace::LogicalIoRecord rec;
    rec.time = t;
    rec.item = static_cast<DataItemId>(rng.UniformInt(0, n_items - 1));
    rec.size = 4096;
    rec.type = rng.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
    buffer.Append(rec);
    counts[static_cast<size_t>(rec.item)]++;
  }
  PatternClassifier classifier(
      PatternClassifier::Options{52 * kSecond, 1 * kSecond});
  auto result = classifier.Classify(buffer, catalog, 0, 520 * kSecond);
  ASSERT_EQ(result.items.size(), static_cast<size_t>(n_items));
  for (int i = 0; i < n_items; ++i) {
    const ItemClassification& cls = result.items[static_cast<size_t>(i)];
    EXPECT_EQ(cls.total_ios(), counts[static_cast<size_t>(i)]);
    if (counts[static_cast<size_t>(i)] == 0) {
      EXPECT_EQ(cls.pattern, IoPattern::kP0);
      ASSERT_EQ(cls.long_interval_count, 1);
    } else if (cls.long_interval_count == 0) {
      EXPECT_EQ(cls.pattern, IoPattern::kP3);
    } else if (cls.reads * 2 > cls.total_ios()) {
      EXPECT_EQ(cls.pattern, IoPattern::kP1);
    } else {
      EXPECT_EQ(cls.pattern, IoPattern::kP2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassifierPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace ecostore::core
