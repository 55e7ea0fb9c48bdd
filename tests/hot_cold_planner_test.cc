// Unit tests for hot/cold enclosure selection (paper §IV-C).

#include <gtest/gtest.h>

#include "core/hot_cold_planner.h"

namespace ecostore::core {
namespace {

constexpr int64_t kCap = 1000;

struct Fixture {
  storage::DataItemCatalog catalog;
  std::unique_ptr<storage::BlockVirtualization> virt;
  ClassificationResult result;

  explicit Fixture(int enclosures) {
    for (int e = 0; e < enclosures; ++e) catalog.AddVolume(e);
  }

  DataItemId AddItem(int enclosure, int64_t size, IoPattern pattern,
                     double iops) {
    DataItemId id =
        catalog
            .AddItem(std::string("i").append(
                         std::to_string(catalog.item_count())),
                     static_cast<VolumeId>(enclosure), size,
                     storage::DataItemKind::kFile)
            .value();
    ItemClassification cls;
    cls.item = id;
    cls.size_bytes = size;
    cls.pattern = pattern;
    cls.avg_iops = iops;
    result.items.push_back(cls);
    result.pattern_counts[static_cast<size_t>(pattern)]++;
    return id;
  }

  void Place(int enclosures) {
    virt = std::make_unique<storage::BlockVirtualization>(&catalog,
                                                          enclosures, kCap);
    ASSERT_TRUE(virt->PlaceInitial().ok());
  }
};

TEST(HotColdPlannerTest, NoP3MeansAllCold) {
  Fixture f(4);
  f.AddItem(0, 100, IoPattern::kP1, 5);
  f.AddItem(1, 100, IoPattern::kP2, 5);
  f.Place(4);
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt);
  EXPECT_EQ(partition.n_hot, 0);
  EXPECT_EQ(partition.n_cold(), 4);
}

TEST(HotColdPlannerTest, NHotFromIops) {
  Fixture f(4);
  f.AddItem(0, 10, IoPattern::kP3, 100);
  f.Place(4);
  f.result.p3_max_iops = 2000.0;  // ceil(2000/900) = 3
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt);
  EXPECT_EQ(partition.n_hot, 3);
}

TEST(HotColdPlannerTest, NHotFromSize) {
  Fixture f(4);
  // P3 bytes total 2500 -> ceil(2500/1000) = 3 hot by size.
  f.AddItem(0, 900, IoPattern::kP3, 1);
  f.AddItem(1, 800, IoPattern::kP3, 1);
  f.AddItem(2, 800, IoPattern::kP3, 1);
  f.Place(4);
  f.result.p3_max_iops = 10.0;
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt);
  EXPECT_EQ(partition.n_hot, 3);
}

TEST(HotColdPlannerTest, HotAreTheP3RichestEnclosures) {
  Fixture f(4);
  f.AddItem(2, 500, IoPattern::kP3, 10);  // enclosure 2 has the most P3
  f.AddItem(1, 100, IoPattern::kP3, 10);
  f.AddItem(0, 900, IoPattern::kP1, 10);  // P1 bytes don't count
  f.Place(4);
  f.result.p3_max_iops = 100.0;  // N_hot = 1
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt);
  EXPECT_EQ(partition.n_hot, 1);
  EXPECT_TRUE(partition.IsHot(2));
  EXPECT_FALSE(partition.IsHot(0));
}

TEST(HotColdPlannerTest, MinNHotRespected) {
  Fixture f(4);
  f.AddItem(0, 10, IoPattern::kP3, 1);
  f.Place(4);
  f.result.p3_max_iops = 1.0;
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt, /*min_n_hot=*/3);
  EXPECT_EQ(partition.n_hot, 3);
}

TEST(HotColdPlannerTest, NHotClampedToEnclosureCount) {
  Fixture f(2);
  f.AddItem(0, 10, IoPattern::kP3, 1);
  f.Place(2);
  f.result.p3_max_iops = 100000.0;
  HotColdPlanner planner(HotColdPlanner::Options{900.0, kCap});
  auto partition = planner.Plan(f.result, *f.virt);
  EXPECT_EQ(partition.n_hot, 2);
  EXPECT_EQ(partition.n_cold(), 0);
}

}  // namespace
}  // namespace ecostore::core
