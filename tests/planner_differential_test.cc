// Differential tests for the fleet-scale planners (DESIGN.md §12):
// the indexed/heap/nth_element implementations in src/core must produce
// bit-identical plans to the frozen stable_sort reference in
// bench/legacy_planner.h across randomized fleets, and
// PowerManagementFunction's plans (post-plan placement, P3-on-cold safety
// net, cache choice) must equal an independent full item-table walk,
// period after period.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/legacy_planner.h"
#include "common/random.h"
#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/placement_planner.h"
#include "core/power_management.h"
#include "monitor/application_monitor.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace ecostore::core {
namespace {

// ---------------------------------------------------------------------
// Randomized planner differential: new vs legacy on varied fleets.
// ---------------------------------------------------------------------

struct RandomFleet {
  storage::DataItemCatalog catalog;
  std::unique_ptr<storage::BlockVirtualization> virt;
  ClassificationResult result;
};

/// Geometry of one randomized differential case, all derived from the
/// seed: fleet size, fill level (capacity pressure drives Algorithm 3
/// evictions and placement failures/retries), pinned items, and how much
/// headroom N_hot gets (a 1.0 peak factor forces the "increase N_hot and
/// retry" loop).
struct FleetShape {
  int enclosures;
  int items_per_enclosure;
  double fill;          ///< target initial fill fraction of each enclosure
  double p3_fraction;
  double pinned_fraction;
  double peak_factor;   ///< p3_max_iops = peak_factor * sum(avg_iops)
};

FleetShape ShapeForSeed(uint64_t seed) {
  static constexpr int kEnclosures[] = {6, 12, 40, 120};
  static constexpr int kItems[] = {12, 50};
  static constexpr double kFill[] = {0.35, 0.65, 0.85};
  static constexpr double kPeak[] = {1.0, 1.3, 1.8};
  FleetShape shape;
  shape.enclosures = kEnclosures[seed % 4];
  shape.items_per_enclosure = kItems[(seed / 4) % 2];
  shape.fill = kFill[(seed / 8) % 3];
  shape.p3_fraction = 0.05 + 0.35 * static_cast<double>(seed % 5) / 4.0;
  shape.pinned_fraction = (seed % 2 == 0) ? 0.0 : 0.1;
  shape.peak_factor = kPeak[seed % 3];
  return shape;
}

constexpr int64_t kCap = 1000 * kMiB;

RandomFleet MakeFleet(uint64_t seed) {
  const FleetShape shape = ShapeForSeed(seed);
  RandomFleet fleet;
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (int e = 0; e < shape.enclosures; ++e) fleet.catalog.AddVolume(e);

  std::vector<int64_t> used(static_cast<size_t>(shape.enclosures), 0);
  const auto budget = static_cast<int64_t>(shape.fill * kCap);
  double p3_iops_sum = 0.0;
  for (int e = 0; e < shape.enclosures; ++e) {
    for (int i = 0; i < shape.items_per_enclosure; ++i) {
      int64_t max_size = std::max<int64_t>(
          budget - used[static_cast<size_t>(e)], 1 * kMiB);
      int64_t size = rng.UniformInt(
          1 * kMiB,
          std::min<int64_t>(max_size,
                            2 * budget / shape.items_per_enclosure));
      used[static_cast<size_t>(e)] += size;
      const bool p3 = rng.NextDouble() < shape.p3_fraction;
      const bool pinned = rng.NextDouble() < shape.pinned_fraction;
      DataItemId id =
          fleet.catalog
              .AddItem(std::string("i").append(
                           std::to_string(fleet.catalog.item_count())),
                       static_cast<VolumeId>(e), size,
                       storage::DataItemKind::kFile, pinned)
              .value();
      ItemClassification cls;
      cls.item = id;
      cls.size_bytes = size;
      cls.pattern = p3 ? IoPattern::kP3
                       : static_cast<IoPattern>(rng.UniformInt(0, 2));
      cls.avg_iops =
          p3 ? static_cast<double>(rng.UniformInt(1, 60)) : 0.25;
      cls.reads = rng.UniformInt(0, 200);
      cls.writes = rng.UniformInt(0, 80);
      cls.read_bytes = cls.reads * 8192;
      cls.write_bytes = cls.writes * 8192;
      cls.io_sequences = 1 + rng.UniformInt(0, 4);
      if (p3) p3_iops_sum += cls.avg_iops;
      fleet.result.items.push_back(cls);
    }
  }
  fleet.result.p3_max_iops = p3_iops_sum * shape.peak_factor;
  fleet.virt = std::make_unique<storage::BlockVirtualization>(
      &fleet.catalog, shape.enclosures, kCap);
  EXPECT_TRUE(fleet.virt->PlaceInitial().ok());
  return fleet;
}

void ExpectSamePlan(const PlacementPlan& got, const PlacementPlan& want,
                    uint64_t seed) {
  ASSERT_EQ(got.partition.n_hot, want.partition.n_hot) << "seed " << seed;
  ASSERT_EQ(got.partition.is_hot, want.partition.is_hot) << "seed " << seed;
  ASSERT_EQ(got.migrations.size(), want.migrations.size())
      << "seed " << seed;
  for (size_t i = 0; i < got.migrations.size(); ++i) {
    EXPECT_EQ(got.migrations[i].item, want.migrations[i].item)
        << "seed " << seed << " migration " << i;
    EXPECT_EQ(got.migrations[i].from, want.migrations[i].from)
        << "seed " << seed << " migration " << i;
    EXPECT_EQ(got.migrations[i].to, want.migrations[i].to)
        << "seed " << seed << " migration " << i;
  }
}

TEST(PlannerDifferentialTest, RandomFleetsMatchLegacyPlans) {
  int total_migrations = 0;
  int plans_with_migrations = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomFleet fleet = MakeFleet(seed);

    HotColdPlanner::Options hc_opts{900.0, kCap};
    PlacementPlanner::Options pl_opts{900.0, kCap};
    HotColdPlanner hot_cold(hc_opts);
    PlacementPlanner indexed(pl_opts, &hot_cold);
    legacy::LegacyHotColdPlanner legacy_hot_cold(hc_opts);
    legacy::LegacyPlacementPlanner legacy_planner(pl_opts,
                                                  &legacy_hot_cold);

    // Hot/cold split alone, with and without a retry floor.
    for (int min_hot : {0, fleet.virt->num_enclosures() / 2}) {
      HotColdPartition a =
          hot_cold.Plan(fleet.result, *fleet.virt, min_hot);
      HotColdPartition b =
          legacy_hot_cold.Plan(fleet.result, *fleet.virt, min_hot);
      ASSERT_EQ(a.n_hot, b.n_hot) << "seed " << seed;
      ASSERT_EQ(a.is_hot, b.is_hot) << "seed " << seed;
    }

    PlacementPlan got = indexed.Plan(fleet.result, *fleet.virt);
    PlacementPlan want = legacy_planner.Plan(fleet.result, *fleet.virt);
    ExpectSamePlan(got, want, seed);
    total_migrations += static_cast<int>(got.migrations.size());
    if (!got.migrations.empty()) plans_with_migrations++;

    // Cache planner over the post-migration placement.
    std::vector<EnclosureId> final_enclosure(fleet.result.items.size());
    for (const ItemClassification& cls : fleet.result.items) {
      final_enclosure[static_cast<size_t>(cls.item)] =
          fleet.virt->EnclosureOf(cls.item);
    }
    for (const Migration& mig : got.migrations) {
      final_enclosure[static_cast<size_t>(mig.item)] = mig.to;
    }
    CachePlanner::Options cache_opts{64 * kMiB, 16 * kMiB};
    CachePlanner cache(cache_opts);
    legacy::LegacyCachePlanner legacy_cache(cache_opts);
    CachePlan cache_got =
        cache.Plan(fleet.result, got.partition, final_enclosure);
    CachePlan cache_want =
        legacy_cache.Plan(fleet.result, want.partition, final_enclosure);
    ASSERT_EQ(cache_got.write_delay, cache_want.write_delay)
        << "seed " << seed;
    ASSERT_EQ(cache_got.preload.size(), cache_want.preload.size())
        << "seed " << seed;
    for (size_t i = 0; i < cache_got.preload.size(); ++i) {
      EXPECT_EQ(cache_got.preload[i], cache_want.preload[i])
          << "seed " << seed << " preload " << i;
    }
  }
  // The sweep must actually exercise the machinery, not vacuously pass on
  // empty plans.
  EXPECT_GT(plans_with_migrations, 10);
  EXPECT_GT(total_migrations, 100);
}

/// Repeated planning against the same inputs must be deterministic (the
/// planners reuse scratch buffers across calls).
TEST(PlannerDifferentialTest, RepeatedPlansAreIdentical) {
  RandomFleet fleet = MakeFleet(7);
  HotColdPlanner hot_cold(HotColdPlanner::Options{900.0, kCap});
  PlacementPlanner planner(PlacementPlanner::Options{900.0, kCap},
                           &hot_cold);
  PlacementPlan first = planner.Plan(fleet.result, *fleet.virt);
  for (int i = 0; i < 3; ++i) {
    PlacementPlan again = planner.Plan(fleet.result, *fleet.virt);
    ExpectSamePlan(again, first, 7);
  }
}

// ---------------------------------------------------------------------
// PowerManagementFunction against the full-walk oracle, with migrations
// committing (partially!) between periods.
// ---------------------------------------------------------------------

class PostPlanPlacementTest : public ::testing::Test {
 protected:
  static constexpr int kEnclosures = 8;
  static constexpr int kItemsPerEnclosure = 6;

  void SetUp() override {
    for (int e = 0; e < kEnclosures; ++e) {
      VolumeId v = catalog_.AddVolume(e);
      for (int i = 0; i < kItemsPerEnclosure; ++i) {
        items_.push_back(catalog_
                             .AddItem(std::string("e")
                                          .append(std::to_string(e))
                                          .append("_i")
                                          .append(std::to_string(i)),
                                      v, 40 * kMiB,
                                      storage::DataItemKind::kFile,
                                      /*pinned=*/pin_first_items_ && i == 0)
                             .value());
      }
    }
    config_.num_enclosures = kEnclosures;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  /// One period of traffic: items whose (item, round) hash is below the
  /// busy threshold get continuous reads (P3), a second band gets a burst
  /// of writes (P1/P2-ish), the rest one touch or nothing.
  void FillPeriod(uint64_t round, SimTime period_end) {
    Xoshiro256 rng(round * 7919 + 13);
    for (DataItemId item : items_) {
      double roll = rng.NextDouble();
      if (roll < 0.25) {
        for (SimTime t = 0; t < period_end; t += 10 * kSecond) {
          Record(item, t + (item % 7) * kSecond, IoType::kRead);
        }
      } else if (roll < 0.45) {
        for (int k = 0; k < 20; ++k) {
          Record(item, 60 * kSecond + k * kSecond, IoType::kWrite);
        }
      } else if (roll < 0.7) {
        Record(item, 100 * kSecond + (item % 11) * kSecond, IoType::kRead);
      }
    }
    buffer_.Finish();
  }

  void Record(DataItemId item, SimTime t, IoType type) {
    trace::LogicalIoRecord rec;
    rec.time = t;
    rec.item = item;
    rec.size = 8192;
    rec.type = type;
    buffer_.Add(rec);
  }

  /// Runs PowerManagementFunction against the full-walk oracle for six
  /// periods under `config` (defined below, after the oracle); true when
  /// the oracle's safety net forced a pinned P3 item's cold enclosure hot
  /// in some period.
  bool ExpectPlansMatchFullWalk(const PowerManagementConfig& config);

  monitor::MonitorSnapshot Snapshot(SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = 0;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    return snapshot;
  }

  /// Sorted record staging: FillPeriod emits per-item streams, the
  /// monitor wants global time order.
  struct SortedBuffer {
    std::vector<trace::LogicalIoRecord> records;
    monitor::ApplicationMonitor* monitor = nullptr;
    void Add(const trace::LogicalIoRecord& rec) { records.push_back(rec); }
    void Finish() {
      std::stable_sort(records.begin(), records.end(),
                       [](const trace::LogicalIoRecord& a,
                          const trace::LogicalIoRecord& b) {
                         return a.time < b.time;
                       });
      for (const trace::LogicalIoRecord& rec : records) {
        monitor->Record(rec);
      }
      records.clear();
    }
  };

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  SortedBuffer buffer_{{}, &app_monitor_};
  std::vector<DataItemId> items_;
  /// Pins the first item of every enclosure: a pinned P3 item on a cold
  /// enclosure cannot move, so the plan's safety net must force it hot.
  bool pin_first_items_ = false;
};

class PinnedPostPlanPlacementTest : public PostPlanPlacementTest {
 protected:
  PinnedPostPlanPlacementTest() { pin_first_items_ = true; }
};

void ExpectSameManagementPlan(const ManagementPlan& got,
                              const ManagementPlan& want, uint64_t round) {
  ASSERT_EQ(got.partition.n_hot, want.partition.n_hot) << "round " << round;
  ASSERT_EQ(got.partition.is_hot, want.partition.is_hot)
      << "round " << round;
  ASSERT_EQ(got.migrations.size(), want.migrations.size())
      << "round " << round;
  for (size_t i = 0; i < got.migrations.size(); ++i) {
    EXPECT_EQ(got.migrations[i].item, want.migrations[i].item)
        << "round " << round;
    EXPECT_EQ(got.migrations[i].to, want.migrations[i].to)
        << "round " << round;
  }
  EXPECT_EQ(got.cache.write_delay, want.cache.write_delay)
      << "round " << round;
  ASSERT_EQ(got.cache.preload.size(), want.cache.preload.size())
      << "round " << round;
  for (size_t i = 0; i < got.cache.preload.size(); ++i) {
    EXPECT_EQ(got.cache.preload[i], want.cache.preload[i])
        << "round " << round;
  }
  EXPECT_EQ(got.next_period, want.next_period) << "round " << round;
}

/// Independent reference for PowerManagementFunction: the plan a period
/// gets when the post-migration item → enclosure map is rebuilt from the
/// virtualization layer and the P3-on-cold safety net walks every P3
/// item. Placement (or, with placement disabled, the bare hot/cold split)
/// is re-run with the same planners; next_period does not depend on the
/// placement and is copied.
class FullWalkOracle {
 public:
  FullWalkOracle(const PowerManagementConfig& config,
                 const storage::StorageSystem& system)
      : enable_placement_(config.enable_placement),
        hot_cold_({config.max_enclosure_iops,
                   system.config().enclosure.capacity_bytes}),
        placement_({config.max_enclosure_iops,
                    system.config().enclosure.capacity_bytes},
                   &hot_cold_),
        cache_({system.config().cache.preload_area_bytes,
                system.config().cache.write_delay_area_bytes}) {}

  /// `plan` supplies the period's classification; `virt` must still hold
  /// the placement the plan was made against.
  ManagementPlan Plan(const ManagementPlan& plan,
                      const storage::BlockVirtualization& virt) {
    const ClassificationResult& classification = *plan.classification;
    PlacementPlan placement;
    if (enable_placement_) {
      placement = placement_.Plan(classification, virt);
    } else {
      placement.partition = hot_cold_.Plan(classification, virt);
    }
    std::vector<EnclosureId> final_enclosure(classification.items.size());
    for (const ItemClassification& cls : classification.items) {
      final_enclosure[static_cast<size_t>(cls.item)] =
          virt.EnclosureOf(cls.item);
    }
    for (const Migration& mig : placement.migrations) {
      final_enclosure[static_cast<size_t>(mig.item)] = mig.to;
    }
    ManagementPlan oracle;
    oracle.partition = placement.partition;
    for (const ItemClassification& cls : classification.items) {
      if (cls.pattern != IoPattern::kP3) continue;
      auto enc = static_cast<size_t>(
          final_enclosure[static_cast<size_t>(cls.item)]);
      if (!oracle.partition.is_hot[enc]) {
        oracle.partition.is_hot[enc] = true;
        oracle.partition.n_hot++;
      }
      if (!placement.partition.is_hot[enc] &&
          virt.catalog().item(cls.item).pinned) {
        pinned_safety_net_fired_ = true;
      }
    }
    oracle.migrations = std::move(placement.migrations);
    oracle.cache =
        cache_.Plan(classification, oracle.partition, final_enclosure);
    oracle.next_period = plan.next_period;
    return oracle;
  }

  /// True once the safety net forced hot an enclosure that the planner
  /// left cold and that holds a pinned P3 item.
  bool pinned_safety_net_fired() const { return pinned_safety_net_fired_; }

 private:
  bool enable_placement_;
  HotColdPlanner hot_cold_;
  PlacementPlanner placement_;
  CachePlanner cache_;
  bool pinned_safety_net_fired_ = false;
};

/// PowerManagementFunction's plans must equal the full walks, including
/// across partially committed migrations (the post-plan placement must
/// follow the live residency, not what the last plan expected). Returns
/// whether the oracle's safety net ever forced a pinned P3 item's cold
/// enclosure hot.
bool PostPlanPlacementTest::ExpectPlansMatchFullWalk(
    const PowerManagementConfig& config) {
  PowerManagementFunction function(config, *system_);
  FullWalkOracle walk(config, *system_);
  app_monitor_.SetSink(function.classifier());

  const SimTime period_end = 520 * kSecond;
  Xoshiro256 apply_rng(1234);
  const uint64_t traffic_round[] = {0, 1, 2, 3, 3, 3};
  for (uint64_t round = 0; round < 6; ++round) {
    app_monitor_.ResetPeriod(0);
    function.classifier()->BeginPeriod(0);
    FillPeriod(traffic_round[round], period_end);
    monitor::MonitorSnapshot snapshot = Snapshot(period_end);

    ManagementPlan plan = function.Run(snapshot, *system_, 520 * kSecond);
    ManagementPlan walk_plan = walk.Plan(plan, system_->virtualization());
    ExpectSameManagementPlan(plan, walk_plan, round);

    for (const Migration& mig : plan.migrations) {
      if (round >= 3 || apply_rng.NextDouble() < 0.6) {
        EXPECT_TRUE(
            system_->virtualization().MoveItem(mig.item, mig.to).ok());
      }
    }
  }
  return walk.pinned_safety_net_fired();
}

TEST_F(PostPlanPlacementTest, PlanMatchesFullWalk) {
  ExpectPlansMatchFullWalk(PowerManagementConfig{});
}

TEST_F(PinnedPostPlanPlacementTest, PlanMatchesFullWalkWithPinnedP3) {
  EXPECT_TRUE(ExpectPlansMatchFullWalk(PowerManagementConfig{}));
}

/// With placement disabled nothing migrates, so the post-plan placement
/// is the live residency alone, and every P3 item the hot/cold split
/// leaves on a cold enclosure must force it hot.
TEST_F(PinnedPostPlanPlacementTest, PlanMatchesFullWalkWithPlacementDisabled) {
  PowerManagementConfig config;
  config.enable_placement = false;
  EXPECT_TRUE(ExpectPlansMatchFullWalk(config));
}

}  // namespace
}  // namespace ecostore::core
