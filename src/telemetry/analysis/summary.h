#ifndef ECOSTORE_TELEMETRY_ANALYSIS_SUMMARY_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_SUMMARY_H_

// Machine-readable run summary: the stable-field-order JSON written by
// `--telemetry-summary=<path>` and by `eco_report score --summary=...`,
// and the numeric comparisons behind the CI gates `eco_report regress`
// and `eco_report tail --reconcile`.
//
// The writer emits every scalar on its own line in a fixed order, so the
// file is both human-diffable and parseable by the same flat line scanner
// the capture reader uses — no JSON library, no field reordering between
// runs.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/export.h"

namespace ecostore::telemetry::analysis {

/// Latency digest of one (pattern, outcome) cell.
struct LatencyRow {
  uint8_t pattern = kPatternUnclassified;
  uint8_t outcome = 0;
  int64_t count = 0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
  double mean_us = 0.0;
};

struct Summary {
  // Run identity.
  std::string workload;
  std::string policy;
  int num_enclosures = 0;
  SimDuration duration = 0;

  // Energy (measured + ledger account).
  double enclosure_energy_j = 0.0;
  double controller_energy_j = 0.0;
  double total_energy_j = 0.0;
  bool has_ledger = false;
  double ledger_enclosure_j = 0.0;
  double reconcile_rel_err = 0.0;
  double off_credit_j = 0.0;
  double off_debit_j = 0.0;
  double net_saving_j = 0.0;  ///< off_credit - off_debit
  double advisory_credit_j = 0.0;
  double advisory_debit_j = 0.0;
  double mispredict_loss_j = 0.0;

  // Decision tallies.
  int64_t plans = 0;
  int64_t decisions = 0;
  int64_t off_windows = 0;
  int64_t mispredicts = 0;
  int64_t migrations = 0;
  int64_t preloads = 0;
  int64_t write_delays = 0;

  // Latency digests, one row per non-empty (pattern, outcome) cell in
  // (pattern, outcome) order.
  std::vector<LatencyRow> latency;
};

/// The summary of a run whose ledger is already built: identity and
/// measured energies from `meta`, the account and tallies from `ledger`,
/// latency digests from meta.latency.
Summary SummaryFromLedger(const ExportMeta& meta, const EnergyLedger& ledger);

/// Builds the summary from a capture (meta + events). When `out_ledger`
/// is non-null the full ledger is copied out for detailed reporting.
Summary BuildSummary(const ExportMeta& meta, const std::vector<Event>& events,
                     EnergyLedger* out_ledger = nullptr);

/// Writes the summary JSON with the stable field order described above.
Status WriteSummaryJson(const std::string& path, const Summary& summary);

/// Parses a WriteSummaryJson file back.
Status ParseSummaryFile(const std::string& path, Summary* summary);

/// One numeric field that differs beyond tolerance.
struct SummaryDiff {
  std::string field;
  double a = 0.0;
  double b = 0.0;
  double rel_err = 0.0;
};

/// Compares the energy account and plan tallies of two summaries — every
/// field a rolling_final line carries — with a relative tolerance
/// (floored at 1.0 absolute units so zero-valued counters compare
/// exactly). This is `eco_report tail --reconcile`. Empty == no diff.
std::vector<SummaryDiff> CompareAccounts(const Summary& a, const Summary& b,
                                         double tolerance);

/// CompareAccounts plus the latency rows, under the same rule. This is
/// `eco_report regress`. Empty result == no regression.
std::vector<SummaryDiff> CompareSummaries(const Summary& a, const Summary& b,
                                          double tolerance);

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_SUMMARY_H_
