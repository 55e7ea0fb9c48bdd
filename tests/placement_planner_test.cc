// Unit + property tests for paper Algorithms 2 & 3 (data placement).

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/placement_planner.h"

namespace ecostore::core {
namespace {

constexpr int64_t kCap = 1000;
constexpr double kO = 900.0;

struct Fixture {
  storage::DataItemCatalog catalog;
  std::unique_ptr<storage::BlockVirtualization> virt;
  ClassificationResult result;

  explicit Fixture(int enclosures) {
    for (int e = 0; e < enclosures; ++e) catalog.AddVolume(e);
  }

  DataItemId AddItem(int enclosure, int64_t size, IoPattern pattern,
                     double iops, bool pinned = false) {
    DataItemId id =
        catalog
            .AddItem(std::string("i").append(
                         std::to_string(catalog.item_count())),
                     static_cast<VolumeId>(enclosure), size,
                     storage::DataItemKind::kFile, pinned)
            .value();
    ItemClassification cls;
    cls.item = id;
    cls.size_bytes = size;
    cls.pattern = pattern;
    cls.avg_iops = iops;
    result.items.push_back(cls);
    return id;
  }

  void Place(int enclosures) {
    virt = std::make_unique<storage::BlockVirtualization>(&catalog,
                                                          enclosures, kCap);
    ASSERT_TRUE(virt->PlaceInitial().ok());
  }

  PlacementPlan Plan() {
    HotColdPlanner::Options hc_opts{kO, kCap};
    static HotColdPlanner hot_cold(hc_opts);
    PlacementPlanner planner(PlacementPlanner::Options{kO, kCap},
                             &hot_cold);
    return planner.Plan(result, *virt);
  }

  /// Final enclosure of each item after applying the plan's migrations.
  std::map<DataItemId, EnclosureId> FinalPlacement(
      const PlacementPlan& plan) {
    std::map<DataItemId, EnclosureId> where;
    for (const auto& cls : result.items) {
      where[cls.item] = virt->EnclosureOf(cls.item);
    }
    for (const Migration& mig : plan.migrations) {
      EXPECT_EQ(where[mig.item], mig.from);
      where[mig.item] = mig.to;
    }
    return where;
  }
};

TEST(PlacementPlannerTest, P3MovesFromColdToHot) {
  Fixture f(3);
  f.AddItem(0, 500, IoPattern::kP3, 100);  // enclosure 0 becomes hot
  DataItemId stray = f.AddItem(2, 50, IoPattern::kP3, 10);
  f.Place(3);
  f.result.p3_max_iops = 110.0;  // N_hot = 1
  auto plan = f.Plan();
  EXPECT_EQ(plan.partition.n_hot, 1);
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].item, stray);
  EXPECT_EQ(plan.migrations[0].from, 2);
  EXPECT_EQ(plan.migrations[0].to, 0);
}

TEST(PlacementPlannerTest, NoMigrationsWhenAllP3AlreadyHot) {
  Fixture f(3);
  f.AddItem(0, 500, IoPattern::kP3, 100);
  f.AddItem(1, 100, IoPattern::kP1, 5);
  f.Place(3);
  f.result.p3_max_iops = 110.0;
  auto plan = f.Plan();
  EXPECT_TRUE(plan.migrations.empty());
}

TEST(PlacementPlannerTest, IopsGuardGrowsHotSet) {
  Fixture f(3);
  // Two heavy P3 items on different enclosures; one hot enclosure cannot
  // serve both (500 + 500 >= 900).
  f.AddItem(0, 100, IoPattern::kP3, 500);
  f.AddItem(1, 100, IoPattern::kP3, 500);
  f.Place(3);
  f.result.p3_max_iops = 1000.0;  // initial N_hot = ceil(1000/900) = 2
  auto plan = f.Plan();
  EXPECT_GE(plan.partition.n_hot, 2);
  // Both P3 items end on hot enclosures.
  auto where = f.FinalPlacement(plan);
  for (const auto& cls : f.result.items) {
    EXPECT_TRUE(plan.partition.IsHot(where[cls.item]));
  }
}

TEST(PlacementPlannerTest, EvictionMakesSpaceOnHot) {
  Fixture f(2);
  // Hot enclosure 0 is nearly full with a P1 item; the cold P3 item only
  // fits after evicting it (Algorithm 3 as space-maker).
  f.AddItem(0, 450, IoPattern::kP3, 100);
  DataItemId filler = f.AddItem(0, 500, IoPattern::kP1, 1);
  DataItemId mover = f.AddItem(1, 400, IoPattern::kP3, 50);
  f.Place(2);
  f.result.p3_max_iops = 160.0;  // N_hot = 1 (enclosure 0)
  auto plan = f.Plan();
  ASSERT_EQ(plan.partition.n_hot, 1);
  ASSERT_TRUE(plan.partition.IsHot(0));
  auto where = f.FinalPlacement(plan);
  EXPECT_EQ(where[filler], 1);  // evicted to the cold enclosure
  EXPECT_EQ(where[mover], 0);
  // Evictions are ordered before P3 moves (paper §V-A).
  ASSERT_EQ(plan.migrations.size(), 2u);
  EXPECT_EQ(plan.migrations[0].item, filler);
  EXPECT_EQ(plan.migrations[1].item, mover);
}

TEST(PlacementPlannerTest, PinnedP3StaysPut) {
  Fixture f(2);
  f.AddItem(0, 300, IoPattern::kP3, 100);
  DataItemId pinned = f.AddItem(1, 50, IoPattern::kP3, 10, /*pinned=*/true);
  f.Place(2);
  f.result.p3_max_iops = 120.0;
  auto plan = f.Plan();
  for (const Migration& mig : plan.migrations) {
    EXPECT_NE(mig.item, pinned);
  }
}

TEST(PlacementPlannerTest, AllHotMeansNoPlan) {
  Fixture f(2);
  f.AddItem(0, 100, IoPattern::kP3, 500);
  f.AddItem(1, 100, IoPattern::kP3, 500);
  f.Place(2);
  f.result.p3_max_iops = 1800.0;  // N_hot = 2 = all
  auto plan = f.Plan();
  EXPECT_EQ(plan.partition.n_hot, 2);
  EXPECT_TRUE(plan.migrations.empty());
}

// Property: for random inputs the plan never overflows capacity, never
// moves pinned items, and leaves every movable P3 item on a hot
// enclosure (or grows the hot set to cover it).
class PlacementPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlacementPropertyTest, PlanRespectsInvariants) {
  Xoshiro256 rng(GetParam());
  int enclosures = 3 + static_cast<int>(rng.UniformInt(0, 5));
  Fixture f(enclosures);
  int items = 10 + static_cast<int>(rng.UniformInt(0, 20));
  double p3_iops_total = 0;
  for (int i = 0; i < items; ++i) {
    auto pattern = static_cast<IoPattern>(rng.UniformInt(0, 3));
    double iops = pattern == IoPattern::kP3
                      ? static_cast<double>(rng.UniformInt(1, 300))
                      : static_cast<double>(rng.UniformInt(0, 10));
    if (pattern == IoPattern::kP3) p3_iops_total += iops;
    f.AddItem(static_cast<int>(rng.UniformInt(0, enclosures - 1)),
              rng.UniformInt(1, 25), pattern, iops,
              rng.Bernoulli(0.1));
  }
  f.Place(enclosures);
  f.result.p3_max_iops = p3_iops_total;
  auto plan = f.Plan();

  auto where = f.FinalPlacement(plan);
  std::vector<int64_t> used(static_cast<size_t>(enclosures), 0);
  for (const auto& cls : f.result.items) {
    used[static_cast<size_t>(where[cls.item])] += cls.size_bytes;
    if (f.catalog.item(cls.item).pinned) {
      EXPECT_EQ(where[cls.item], f.virt->EnclosureOf(cls.item));
    }
    if (cls.pattern == IoPattern::kP3 && plan.partition.n_cold() > 0 &&
        !f.catalog.item(cls.item).pinned) {
      EXPECT_TRUE(plan.partition.IsHot(where[cls.item]))
          << "movable P3 item " << cls.item << " left cold";
    }
  }
  for (int64_t u : used) EXPECT_LE(u, kCap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ecostore::core
