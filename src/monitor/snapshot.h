#ifndef ECOSTORE_MONITOR_SNAPSHOT_H_
#define ECOSTORE_MONITOR_SNAPSHOT_H_

#include "common/sim_time.h"
#include "monitor/application_monitor.h"

namespace ecostore::monitor {

/// \brief Read-only view over the application monitor's repository handed
/// to a power-management policy at the end of a monitoring period (the input of
/// paper Algorithm 1's loop body).
struct MonitorSnapshot {
  SimTime period_start = 0;
  SimTime period_end = 0;
  const ApplicationMonitor* application = nullptr;

  SimDuration period_length() const { return period_end - period_start; }
};

}  // namespace ecostore::monitor

#endif  // ECOSTORE_MONITOR_SNAPSHOT_H_
