// Tests for the baseline policies: no-power-saving, fixed-timeout, PDC
// and DDR.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
#include "monitor/application_monitor.h"
#include "policies/basic_policies.h"
#include "policies/ddr_policy.h"
#include "policies/pdc_policy.h"
#include "sim/simulator.h"

namespace ecostore::policies {
namespace {

/// Bare actuator. Given an Application Monitor it supports logical I/O
/// sinks the way the replay engine does: by attaching them to the monitor.
struct MockActuator : public PolicyActuator {
  explicit MockActuator(monitor::ApplicationMonitor* app = nullptr)
      : app_monitor(app) {}

  monitor::ApplicationMonitor* app_monitor;
  SimTime now = 0;
  std::vector<std::pair<DataItemId, EnclosureId>> migrations;
  std::vector<std::tuple<EnclosureId, EnclosureId, int64_t>> block_moves;
  std::vector<bool> spin_down;

  SimTime Now() const override { return now; }
  void RequestMigration(DataItemId item, EnclosureId target) override {
    migrations.emplace_back(item, target);
  }
  void RequestBlockMigration(EnclosureId from, EnclosureId to,
                             int64_t bytes) override {
    block_moves.emplace_back(from, to, bytes);
  }
  void SetWriteDelayItems(const std::unordered_set<DataItemId>&) override {}
  void SetPreloadItems(
      const std::vector<std::pair<DataItemId, int64_t>>&) override {}
  void SetSpinDownAllowed(EnclosureId enclosure, bool allowed) override {
    if (spin_down.size() <= static_cast<size_t>(enclosure)) {
      spin_down.resize(static_cast<size_t>(enclosure) + 1, false);
    }
    spin_down[static_cast<size_t>(enclosure)] = allowed;
  }
  void TriggerImmediatePeriodEnd() override {}
  bool AttachLogicalIoSink(monitor::LogicalIoSink* sink) override {
    if (app_monitor == nullptr) return false;
    app_monitor->SetSink(sink);
    return true;
  }
};

/// Collects the levels of the log lines emitted on this thread.
class LevelSink : public LogSink {
 public:
  LevelSink() : previous_(Logger::SetThreadSink(this)) {}
  ~LevelSink() override { Logger::SetThreadSink(previous_); }

  void WriteLog(LogLevel level, const char*, int,
                const std::string&) override {
    levels.push_back(level);
  }

  std::vector<LogLevel> levels;

 private:
  LogSink* previous_;
};

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int e = 0; e < 3; ++e) catalog_.AddVolume(e);
    for (int i = 0; i < 6; ++i) {
      items_.push_back(catalog_
                           .AddItem(std::string("i").append(std::to_string(i)),
                                    static_cast<VolumeId>(i % 3), 100 * kMiB,
                                    storage::DataItemKind::kFile)
                           .value());
    }
    config_.num_enclosures = 3;
    system_ = std::make_unique<storage::StorageSystem>(&sim_, config_,
                                                       &catalog_);
    ASSERT_TRUE(system_->Init().ok());
  }

  monitor::MonitorSnapshot Snapshot(SimTime start, SimTime end) {
    monitor::MonitorSnapshot snapshot;
    snapshot.period_start = start;
    snapshot.period_end = end;
    snapshot.application = &app_monitor_;
    return snapshot;
  }

  void LogicalRead(SimTime t, DataItemId item, int count = 1) {
    for (int i = 0; i < count; ++i) {
      trace::LogicalIoRecord rec;
      rec.time = t;
      rec.item = item;
      rec.size = 4096;
      rec.type = IoType::kRead;
      app_monitor_.Record(rec);
    }
  }

  /// Delivers physical I/Os through the hook the replay engine calls.
  static void PhysicalRead(StoragePolicy* policy, SimTime t, EnclosureId enc,
                           int count = 1) {
    for (int i = 0; i < count; ++i) {
      trace::PhysicalIoRecord rec;
      rec.time = t;
      rec.enclosure = enc;
      rec.size = 4096;
      rec.type = IoType::kRead;
      policy->OnPhysicalIo(rec);
    }
  }

  sim::Simulator sim_;
  storage::StorageConfig config_;
  storage::DataItemCatalog catalog_;
  std::unique_ptr<storage::StorageSystem> system_;
  monitor::ApplicationMonitor app_monitor_;
  std::vector<DataItemId> items_;
};

TEST_F(BaselineFixture, NoPowerSavingForbidsSpinDown) {
  NoPowerSavingPolicy policy;
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_FALSE(allowed);
  EXPECT_EQ(policy.placement_determinations(), 0);
}

TEST_F(BaselineFixture, FixedTimeoutAllowsSpinDownEverywhere) {
  FixedTimeoutPolicy policy;
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_TRUE(allowed);
}

TEST_F(BaselineFixture, PdcConcentratesPopularItems) {
  PdcPolicy policy{PdcPolicy::Options{}};
  MockActuator actuator{&app_monitor_};
  policy.Start(*system_, &actuator);
  // Item on enclosure 2 is very popular; tail items quiet.
  LogicalRead(0, items_[2], 1000);
  LogicalRead(0, items_[0], 1);
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  EXPECT_EQ(policy.placement_determinations(), 1);
  // The popular item (initially on enclosure 2 via volume 2) moves to the
  // front of the packing order: enclosure 0.
  bool moved_popular = false;
  for (auto& [item, target] : actuator.migrations) {
    if (item == items_[2]) {
      moved_popular = true;
      EXPECT_EQ(target, 0);
    }
  }
  EXPECT_TRUE(moved_popular);
}

TEST_F(BaselineFixture, PdcSpreadsWhenLoadBudgetExceeded) {
  PdcPolicy::Options options;
  options.load_fraction = 0.001;  // budget ~0.9 IOPS per enclosure
  PdcPolicy policy{options};
  MockActuator actuator{&app_monitor_};
  policy.Start(*system_, &actuator);
  for (auto item : items_) LogicalRead(0, item, 10000);
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  // With no enclosure satisfying the budget, items fall back to the
  // emptiest enclosure: placement still defined for every item.
  SUCCEED();
}

TEST_F(BaselineFixture, PdcRanksByStreamedCounts) {
  // Space for two 100 MiB items per enclosure, so the popularity order
  // decides which items share enclosure 0.
  PdcPolicy::Options options;
  options.fill_fraction =
      250.0 * kMiB /
      static_cast<double>(system_->virtualization().capacity_bytes());
  PdcPolicy policy{options};
  MockActuator actuator{&app_monitor_};
  policy.Start(*system_, &actuator);
  // The last-indexed item is hot and the first barely touched. Without
  // the counts every item ties and PDC would pack them in index order,
  // leaving item 5 on enclosure 2.
  LogicalRead(0, items_[5], 1000);
  LogicalRead(0, items_[0], 1);
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  // Packing order 5, 0, 1, 2, 3, 4 onto enclosures 0, 0, 1, 1, 2, 2;
  // item i starts on enclosure i % 3.
  std::vector<std::pair<DataItemId, EnclosureId>> expected = {
      {items_[2], 1}, {items_[3], 2}, {items_[4], 2}, {items_[5], 0}};
  std::sort(actuator.migrations.begin(), actuator.migrations.end());
  EXPECT_EQ(actuator.migrations, expected);
}

TEST_F(BaselineFixture, PdcWithoutSinkLogsErrorAndDoesNotPlan) {
  PdcPolicy policy{PdcPolicy::Options{}};
  MockActuator actuator;  // no logical I/O sink support
  LevelSink log;
  policy.Start(*system_, &actuator);
  EXPECT_NE(std::find(log.levels.begin(), log.levels.end(), LogLevel::kError),
            log.levels.end());
  actuator.now = 30 * kMinute;
  policy.OnPeriodEnd(Snapshot(0, 30 * kMinute), *system_, &actuator);
  EXPECT_TRUE(actuator.migrations.empty());
  EXPECT_EQ(policy.placement_determinations(), 0);
}

TEST_F(BaselineFixture, DdrClassifiesColdAndAllowsSpinDown) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  for (bool allowed : actuator.spin_down) EXPECT_FALSE(allowed);

  // Enclosure 0 busy above LowTH (225 IOPS * 10 s window = 2250 I/Os);
  // enclosures 1 and 2 quiet.
  PhysicalRead(&policy, 0, 0, 3000);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  ASSERT_EQ(actuator.spin_down.size(), 3u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_TRUE(actuator.spin_down[1]);
  EXPECT_TRUE(actuator.spin_down[2]);
  // One determination per enclosure per window.
  EXPECT_EQ(policy.placement_determinations(), 3);
}

TEST_F(BaselineFixture, DdrCountsEachWindowSeparately) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  PhysicalRead(&policy, 0, 0, 3000);  // window 1: enclosure 0 hot
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  ASSERT_EQ(actuator.spin_down.size(), 3u);
  EXPECT_FALSE(actuator.spin_down[0]);
  EXPECT_TRUE(actuator.spin_down[1]);

  // I/Os delivered after the window closed count toward the next one
  // only: enclosure 1 turns hot and enclosure 0, idle since, turns cold.
  PhysicalRead(&policy, 11 * kSecond, 1, 3000);
  actuator.now = 20 * kSecond;
  policy.OnPeriodEnd(Snapshot(10 * kSecond, 20 * kSecond), *system_,
                     &actuator);
  EXPECT_TRUE(actuator.spin_down[0]);
  EXPECT_FALSE(actuator.spin_down[1]);
  EXPECT_TRUE(actuator.spin_down[2]);
}

TEST_F(BaselineFixture, DdrMigratesBlocksOffColdEnclosures) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  PhysicalRead(&policy, 0, 0, 3000);  // enclosure 0 hot
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);

  // An access to cold enclosure 1 migrates the touched blocks toward the
  // hot enclosure 0.
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  ASSERT_EQ(actuator.block_moves.size(), 1u);
  EXPECT_EQ(std::get<0>(actuator.block_moves[0]), 1);
  EXPECT_EQ(std::get<1>(actuator.block_moves[0]), 0);
  EXPECT_EQ(std::get<2>(actuator.block_moves[0]), 65536);
}

TEST_F(BaselineFixture, DdrCapsPerWindowMigration) {
  DdrPolicy::Options options;
  options.migration_cap_bytes = 100000;
  DdrPolicy policy{options};
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  PhysicalRead(&policy, 0, 0, 3000);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  policy.OnPhysicalIo(rec);  // crosses the 100 KB cap
  policy.OnPhysicalIo(rec);  // suppressed
  EXPECT_EQ(actuator.block_moves.size(), 2u);
}

TEST_F(BaselineFixture, DdrNoMigrationWhenEverythingCold) {
  DdrPolicy policy{DdrPolicy::Options{}};
  MockActuator actuator;
  policy.Start(*system_, &actuator);
  actuator.now = 10 * kSecond;
  policy.OnPeriodEnd(Snapshot(0, 10 * kSecond), *system_, &actuator);
  trace::PhysicalIoRecord rec;
  rec.time = 11 * kSecond;
  rec.enclosure = 1;
  rec.size = 65536;
  rec.type = IoType::kRead;
  policy.OnPhysicalIo(rec);
  EXPECT_TRUE(actuator.block_moves.empty());  // no hot target exists
}

}  // namespace
}  // namespace ecostore::policies
