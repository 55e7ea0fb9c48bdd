// Tests for the proposed policy's plan enactment and the §V-D
// pattern-change triggers, using a mock actuator.

#include <gtest/gtest.h>

#include "core/eco_storage_policy.h"
#include "monitor/application_monitor.h"
#include "sim/simulator.h"

namespace ecostore::core {
namespace {

/// Records every action; keeps PolicyActuator's AttachLogicalIoSink, so
/// it offers no logical I/O stream.
struct BareActuator : public policies::PolicyActuator {
  SimTime now = 0;
  std::vector<std::pair<DataItemId, EnclosureId>> migrations;
  std::unordered_set<DataItemId> write_delay;
  std::vector<std::pair<DataItemId, int64_t>> preload;
  std::vector<bool> spin_down;
  int immediate_triggers = 0;

  SimTime Now() const override { return now; }
  void RequestMigration(DataItemId item, EnclosureId target) override {
    migrations.emplace_back(item, target);
  }
  void RequestBlockMigration(EnclosureId, EnclosureId, int64_t) override {}
  void SetWriteDelayItems(
      const std::unordered_set<DataItemId>& items) override {
    write_delay = items;
  }
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>& items) override {
    preload = items;
  }
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override {
    if (spin_down.size() <= static_cast<size_t>(enclosure)) {
      spin_down.resize(static_cast<size_t>(enclosure) + 1, false);
    }
    spin_down[static_cast<size_t>(enclosure)] = allowed;
  }
  void TriggerImmediatePeriodEnd() override { immediate_triggers++; }
};

/// Streams the test's Application Monitor into the policy, as the replay
/// engine does.
struct MockActuator : public BareActuator {
  explicit MockActuator(monitor::ApplicationMonitor* app_monitor)
      : app_monitor(app_monitor) {}
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    app_monitor->SetSink(sink);
    return true;
  }
  monitor::ApplicationMonitor* app_monitor;
};

class EcoPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two enclosures; a busy P3-ish item on 0, an episodic item on 1.
    VolumeId v0 = catalog_.AddVolume(0);
    VolumeId v1 = catalog_.AddVolume(1);
    busy_ = catalog_.AddItem("busy", v0, 100 * kMiB,
                             storage::DataItemKind::kTable)
                .value();
    episodic_ = catalog_.AddItem("episodic", v1, 10 * kMiB,
                                 storage::DataItemKind::kFile)
                    .value();
    config_.num_enclosures = 2;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  monitor::MonitorSnapshot MakeSnapshot(SimTime start, SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = start;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    return snapshot;
  }

  void FillPeriodTraffic(SimTime period_end) {
    // Busy item: I/O every 10 s (P3). Episodic item: two reads (P1).
    for (SimTime t = 0; t < period_end; t += 10 * kSecond) {
      trace::LogicalIoRecord rec;
      rec.time = t;
      rec.item = busy_;
      rec.size = 8192;
      rec.type = IoType::kRead;
      app_monitor_.Record(rec);
    }
    trace::LogicalIoRecord rec;
    rec.time = 100 * kSecond;
    rec.item = episodic_;
    rec.size = 8192;
    rec.type = IoType::kRead;
    app_monitor_.Record(rec);
  }

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  DataItemId busy_ = kInvalidDataItem;
  DataItemId episodic_ = kInvalidDataItem;
};

TEST_F(EcoPolicyTest, StartDisablesSpinDownEverywhere) {
  PowerManagementConfig pm;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  ASSERT_EQ(actuator.spin_down.size(), 2u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_FALSE(actuator.spin_down[1]);
  EXPECT_EQ(policy.initial_period(), pm.initial_period);
}

TEST_F(EcoPolicyTest, PeriodEndEnactsPlan) {
  PowerManagementConfig pm;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  SimDuration next = policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond),
                                        *system_, &actuator);
  EXPECT_GT(next, 0);
  EXPECT_EQ(policy.placement_determinations(), 1);
  // Enclosure 0 (P3 item) is hot, enclosure 1 cold.
  ASSERT_EQ(actuator.spin_down.size(), 2u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_TRUE(actuator.spin_down[1]);
  // The episodic read-mostly item is preloaded.
  ASSERT_EQ(actuator.preload.size(), 1u);
  EXPECT_EQ(actuator.preload[0].first, episodic_);
  // Pattern history recorded (one P3, one P1).
  ASSERT_EQ(policy.pattern_history().size(), 1u);
  EXPECT_EQ(policy.pattern_history()[0][static_cast<size_t>(
                IoPattern::kP3)],
            1);
  EXPECT_EQ(policy.pattern_history()[0][static_cast<size_t>(
                IoPattern::kP1)],
            1);
}

TEST_F(EcoPolicyTest, WithoutSinkNeverPlansOrSpinsDown) {
  EcoStoragePolicy policy(PowerManagementConfig{});
  BareActuator actuator;
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  SimDuration next = policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond),
                                        *system_, &actuator);
  EXPECT_EQ(next, PowerManagementConfig{}.initial_period);
  EXPECT_EQ(policy.placement_determinations(), 0);
  EXPECT_TRUE(actuator.migrations.empty());
  EXPECT_TRUE(actuator.preload.empty());
  EXPECT_TRUE(actuator.write_delay.empty());
  // Start()'s "no spin-down" stands on both enclosures.
  ASSERT_EQ(actuator.spin_down.size(), 2u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_FALSE(actuator.spin_down[1]);
  // Nor do the §V-D triggers force period ends it would not plan for.
  policy.OnIdleGapEnd(0, actuator.now + 600 * kSecond, 60 * kSecond);
  EXPECT_EQ(actuator.immediate_triggers, 0);
}

TEST_F(EcoPolicyTest, HotEnclosureLongGapTriggersReplan) {
  PowerManagementConfig pm;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond), *system_, &actuator);

  // Too early in the period: rate-limited.
  policy.OnIdleGapEnd(0, actuator.now + 100 * kSecond, 60 * kSecond);
  EXPECT_EQ(actuator.immediate_triggers, 0);
  // Condition i: a gap beyond break-even on the HOT enclosure 0, once the
  // period is old enough to re-classify.
  policy.OnIdleGapEnd(0, actuator.now + 600 * kSecond, 60 * kSecond);
  EXPECT_EQ(actuator.immediate_triggers, 1);
  // Only once per period.
  policy.OnIdleGapEnd(0, actuator.now + 700 * kSecond, 60 * kSecond);
  EXPECT_EQ(actuator.immediate_triggers, 1);
}

TEST_F(EcoPolicyTest, ColdGapDoesNotTrigger) {
  PowerManagementConfig pm;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond), *system_, &actuator);
  policy.OnIdleGapEnd(1, actuator.now + 600 * kSecond, 60 * kSecond);
  EXPECT_EQ(actuator.immediate_triggers, 0);
}

TEST_F(EcoPolicyTest, ColdPowerOnStormTriggersReplan) {
  PowerManagementConfig pm;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond), *system_, &actuator);

  // Condition ii: m = 2*(t_c - t_e)/52 s; at +600 s, m ~ 23.1, so the
  // 24th power-on of cold enclosure 1 crosses it.
  SimTime at = actuator.now + 600 * kSecond;
  for (int i = 0; i < 23; ++i) policy.OnPowerOn(1, at);
  EXPECT_EQ(actuator.immediate_triggers, 0);
  policy.OnPowerOn(1, at);
  EXPECT_EQ(actuator.immediate_triggers, 1);
}

TEST_F(EcoPolicyTest, TriggersCanBeDisabled) {
  PowerManagementConfig pm;
  pm.enable_pattern_change_triggers = false;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond), *system_, &actuator);
  policy.OnIdleGapEnd(0, actuator.now + 600 * kSecond, 500 * kSecond);
  for (int i = 0; i < 40; ++i) {
    policy.OnPowerOn(1, actuator.now + 600 * kSecond);
  }
  EXPECT_EQ(actuator.immediate_triggers, 0);
}

TEST_F(EcoPolicyTest, FeatureFlagsSuppressCacheActions) {
  PowerManagementConfig pm;
  pm.enable_preload = false;
  pm.enable_write_delay = false;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond), *system_, &actuator);
  EXPECT_TRUE(actuator.preload.empty());
  EXPECT_TRUE(actuator.write_delay.empty());
}

TEST_F(EcoPolicyTest, AdaptivePeriodCanBeDisabled) {
  PowerManagementConfig pm;
  pm.enable_adaptive_period = false;
  EcoStoragePolicy policy(pm);
  MockActuator actuator(&app_monitor_);
  policy.Start(*system_, &actuator);
  FillPeriodTraffic(520 * kSecond);
  actuator.now = 520 * kSecond;
  SimDuration next = policy.OnPeriodEnd(MakeSnapshot(0, 520 * kSecond),
                                        *system_, &actuator);
  EXPECT_EQ(next, pm.initial_period);
}

TEST(PowerManagementConfigTest, Validation) {
  PowerManagementConfig pm;
  EXPECT_TRUE(pm.Validate().ok());
  pm.alpha = 0.9;
  EXPECT_FALSE(pm.Validate().ok());
  pm = PowerManagementConfig{};
  pm.break_even = 0;
  EXPECT_FALSE(pm.Validate().ok());
  pm = PowerManagementConfig{};
  pm.max_period = pm.min_period - 1;
  EXPECT_FALSE(pm.Validate().ok());
}

}  // namespace
}  // namespace ecostore::core
