#ifndef ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_
#define ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_

// Exporters for a drained wall-clock profile (DESIGN.md §15):
//  - JSONL: a profile_meta line followed by one span object per line —
//    the interchange format `eco_report profile` reads back;
//  - Chrome trace_event JSON: the *real-time* track. The sim-time trace
//    (telemetry/export.cc) uses pids 0–3 with ts = simulated µs; this
//    file uses pid 10 with ts = wall-clock µs since the profiler epoch.
//    The two clock domains are correlated by the span `seq` ids (period
//    index), which match the kPeriodBoundary indices in the sim-time
//    stream.

#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/profile/profiler.h"

namespace ecostore::telemetry::profile {

/// Run identification + engine-level wall figures written into every
/// profile export.
struct ProfileMeta {
  std::string workload;
  std::string policy;
  int host_cpus = 0;
  int64_t wall_ns = 0;  ///< whole-run wall time (engine entry to exit)
  uint64_t spans = 0;
};

Status WriteProfileJsonl(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans);

/// Parses a WriteProfileJsonl file back. Unknown "type" values and keys
/// are skipped so the format can grow (and shrink); a missing meta line
/// or a span count that disagrees with the meta header fails with the
/// line number.
Status ParseProfileJsonl(const std::string& path, ProfileMeta* meta,
                         std::vector<Span>* spans);

Status WriteProfileTrace(const std::string& path, const ProfileMeta& meta,
                         const std::vector<Span>& spans);

/// Writes both exports: `<base>.profile.jsonl` and
/// `<base>.profile.trace.json` (a trailing ".profile.jsonl" or ".jsonl"
/// on `base` is stripped first, so `--profile=run.profile.jsonl` and
/// `--profile=run` are equivalent).
Status ExportProfile(const std::string& base, const ProfileMeta& meta,
                     const std::vector<Span>& spans);

/// Phase numeric value for a PhaseName() string; Phase::kNone when the
/// name is unknown (captures from newer builds).
Phase PhaseFromName(const std::string& name);

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_TELEMETRY_PROFILE_PROFILE_EXPORT_H_
