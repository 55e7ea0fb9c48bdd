// Tests for the Application Monitor and the period snapshot (paper §III).

#include <gtest/gtest.h>

#include "monitor/application_monitor.h"
#include "monitor/snapshot.h"

namespace ecostore::monitor {
namespace {

trace::LogicalIoRecord Logical(SimTime t, DataItemId item) {
  trace::LogicalIoRecord rec;
  rec.time = t;
  rec.item = item;
  rec.size = 4096;
  rec.type = IoType::kRead;
  return rec;
}

TEST(ApplicationMonitorTest, RecordsAndResets) {
  ApplicationMonitor monitor;
  monitor.Record(Logical(10, 1));
  monitor.Record(Logical(20, 2));
  EXPECT_EQ(monitor.buffer().size(), 2u);
  EXPECT_EQ(monitor.total_records(), 2);

  monitor.ResetPeriod(100);
  EXPECT_TRUE(monitor.buffer().empty());
  EXPECT_EQ(monitor.period_start(), 100);
  // Cumulative count survives the period reset.
  EXPECT_EQ(monitor.total_records(), 2);
}

TEST(MonitorSnapshotTest, PeriodLength) {
  ApplicationMonitor app;
  MonitorSnapshot snapshot;
  snapshot.period_start = 100;
  snapshot.period_end = 620;
  snapshot.application = &app;
  EXPECT_EQ(snapshot.period_length(), 520);
}

}  // namespace
}  // namespace ecostore::monitor
