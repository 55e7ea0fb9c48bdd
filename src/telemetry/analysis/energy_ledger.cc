#include "telemetry/analysis/energy_ledger.h"

#include "telemetry/analysis/incremental_ledger.h"

namespace ecostore::telemetry::analysis {

const char* WakeCauseName(WakeCause cause) {
  switch (cause) {
    case WakeCause::kDemand: return "demand";
    case WakeCause::kFlush: return "flush";
    case WakeCause::kPreload: return "preload";
    case WakeCause::kMigration: return "migration";
    case WakeCause::kRunEnd: return "run_end";
  }
  return "?";
}

const char* AdvisoryKindName(AdvisoryEntry::Kind kind) {
  switch (kind) {
    case AdvisoryEntry::Kind::kPreload: return "preload";
    case AdvisoryEntry::Kind::kWriteDelay: return "write_delay";
    case AdvisoryEntry::Kind::kWriteDelayOccupancy:
      return "write_delay_occupancy";
  }
  return "?";
}

EnergyLedger BuildLedger(const ExportMeta& meta,
                         const std::vector<Event>& events) {
  IncrementalEnergyLedger ledger(meta);
  for (const Event& e : events) ledger.Consume(e);
  ledger.Flush();
  return ledger.Snapshot();
}

}  // namespace ecostore::telemetry::analysis
