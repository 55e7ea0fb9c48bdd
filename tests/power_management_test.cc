// Function-level tests for PowerManagementFunction (paper Algorithm 1)
// and the report printers.

#include <gtest/gtest.h>

#include <sstream>

#include "core/power_management.h"
#include "replay/report.h"
#include "sim/simulator.h"

namespace ecostore::core {
namespace {

class PowerManagementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VolumeId v0 = catalog_.AddVolume(0);
    VolumeId v1 = catalog_.AddVolume(1);
    VolumeId v2 = catalog_.AddVolume(2);
    busy_ = catalog_.AddItem("busy", v0, 100 * kMiB,
                             storage::DataItemKind::kTable)
                .value();
    stray_ = catalog_.AddItem("stray_busy", v1, 10 * kMiB,
                              storage::DataItemKind::kTable)
                 .value();
    quiet_ = catalog_.AddItem("quiet", v2, 10 * kMiB,
                              storage::DataItemKind::kFile)
                 .value();
    pinned_ = catalog_
                  .AddItem("pinned_busy", v1, 1 * kMiB,
                           storage::DataItemKind::kIndex, /*pinned=*/true)
                  .value();
    config_.num_enclosures = 3;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  /// Streams the monitor into `function`'s classifier from time 0, as
  /// EcoStoragePolicy does through its actuator.
  void Attach(PowerManagementFunction* function) {
    app_monitor_.SetSink(function->classifier());
    function->classifier()->BeginPeriod(0);
  }

  /// Continuous traffic -> P3; one touch -> P1.
  void Fill(SimTime period_end) {
    auto add = [&](DataItemId item, SimTime t, IoType type) {
      trace::LogicalIoRecord rec;
      rec.time = t;
      rec.item = item;
      rec.size = 8192;
      rec.type = type;
      app_monitor_.Record(rec);
    };
    for (SimTime t = 0; t < period_end; t += 10 * kSecond) {
      add(busy_, t, IoType::kRead);
      add(stray_, t + kSecond, IoType::kRead);
      add(pinned_, t + 2 * kSecond, IoType::kWrite);
    }
    add(quiet_, 100 * kSecond, IoType::kRead);
  }

  monitor::MonitorSnapshot Snapshot(SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = 0;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    return snapshot;
  }

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  DataItemId busy_ = kInvalidDataItem;
  DataItemId stray_ = kInvalidDataItem;
  DataItemId quiet_ = kInvalidDataItem;
  DataItemId pinned_ = kInvalidDataItem;
};

TEST_F(PowerManagementTest, FillsZeroDefaultsFromStorageConfig) {
  PowerManagementConfig pm;
  pm.enclosure_capacity = 0;
  pm.preload_area_bytes = 0;
  pm.write_delay_area_bytes = 0;
  PowerManagementFunction function(pm, *system_);
  EXPECT_EQ(function.config().enclosure_capacity,
            config_.enclosure.capacity_bytes);
  EXPECT_EQ(function.config().preload_area_bytes,
            config_.cache.preload_area_bytes);
  EXPECT_EQ(function.config().write_delay_area_bytes,
            config_.cache.write_delay_area_bytes);
}

TEST_F(PowerManagementTest, FullPlanConsolidatesAndProtectsPinned) {
  PowerManagementFunction function(PowerManagementConfig{}, *system_);
  Attach(&function);
  Fill(520 * kSecond);
  ManagementPlan plan =
      function.Run(Snapshot(520 * kSecond), *system_, 520 * kSecond);

  // busy (enclosure 0) dominates the P3 bytes -> hot; stray moves there.
  EXPECT_TRUE(plan.partition.IsHot(0));
  bool stray_moved = false;
  for (const Migration& mig : plan.migrations) {
    EXPECT_NE(mig.item, pinned_);
    if (mig.item == stray_) {
      stray_moved = true;
      EXPECT_EQ(mig.to, 0);
    }
  }
  EXPECT_TRUE(stray_moved);
  // The pinned P3 item stays on enclosure 1, which must therefore stay
  // hot (the safety net), while enclosure 2 may power off.
  EXPECT_TRUE(plan.partition.IsHot(1));
  EXPECT_FALSE(plan.partition.IsHot(2));
  // The quiet read-only item on the cold enclosure is preloaded.
  ASSERT_EQ(plan.cache.preload.size(), 1u);
  EXPECT_EQ(plan.cache.preload[0].first, quiet_);
}

TEST_F(PowerManagementTest, NoPlacementKeepsP3EnclosuresHot) {
  PowerManagementConfig pm;
  pm.enable_placement = false;
  PowerManagementFunction function(pm, *system_);
  Attach(&function);
  Fill(520 * kSecond);
  ManagementPlan plan =
      function.Run(Snapshot(520 * kSecond), *system_, 520 * kSecond);
  EXPECT_TRUE(plan.migrations.empty());
  // Both P3-holding enclosures forced hot; only enclosure 2 cold.
  EXPECT_TRUE(plan.partition.IsHot(0));
  EXPECT_TRUE(plan.partition.IsHot(1));
  EXPECT_FALSE(plan.partition.IsHot(2));
}

TEST_F(PowerManagementTest, EmptyPeriodYieldsAllP0AllCold) {
  PowerManagementFunction function(PowerManagementConfig{}, *system_);
  Attach(&function);
  ManagementPlan plan =
      function.Run(Snapshot(520 * kSecond), *system_, 520 * kSecond);
  EXPECT_EQ(plan.classification->pattern_counts[0], 4);  // all P0
  EXPECT_EQ(plan.partition.n_hot, 0);
  for (bool hot : plan.partition.is_hot) EXPECT_FALSE(hot);
  // Period adapts from the P0 full-period intervals: 520 s * 1.2.
  EXPECT_EQ(plan.next_period, 624 * kSecond);
}

TEST(ReportTest, PrintersProduceStructuredText) {
  replay::ExperimentMetrics base;
  base.policy = "no_power_saving";
  base.workload = "toy";
  base.duration = kHour;
  base.avg_enclosure_power = 2000;
  base.avg_total_power = 2190;
  replay::ExperimentMetrics run = base;
  run.policy = "proposed";
  run.avg_enclosure_power = 1500;
  run.idle_gaps = {60 * kSecond, 2 * kMinute};
  run.per_enclosure.push_back({3600.0, 42, 1, 0.5});
  std::vector<replay::ExperimentMetrics> runs = {base, run};

  std::ostringstream power;
  replay::PrintPowerTable(power, runs);
  EXPECT_NE(power.str().find("proposed"), std::string::npos);
  EXPECT_NE(power.str().find("25.0"), std::string::npos);  // saving %

  std::ostringstream cdf;
  replay::PrintIntervalCdf(cdf, runs, {52 * kSecond});
  EXPECT_NE(cdf.str().find("52s"), std::string::npos);

  std::ostringstream enc;
  replay::PrintEnclosureTable(enc, run);
  EXPECT_NE(enc.str().find("50.0%"), std::string::npos);

  std::ostringstream timeline;
  replay::PrintPowerTimeline(timeline, run);
  EXPECT_NE(timeline.str().find("no power samples"), std::string::npos);

  run.power_samples.push_back({10 * kSecond, 1000.0, 190.0});
  run.power_samples.push_back({20 * kSecond, 500.0, 190.0});
  std::ostringstream timeline2;
  replay::PrintPowerTimeline(timeline2, run);
  EXPECT_NE(timeline2.str().find('#'), std::string::npos);

  EXPECT_NE(replay::Summarize(run).find("toy/proposed"),
            std::string::npos);
}

}  // namespace
}  // namespace ecostore::core
