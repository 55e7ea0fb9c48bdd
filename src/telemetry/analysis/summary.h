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
// runs. The account fields and the latency-row fields are each declared
// once (kAccountFields, kLatencyRowFields); the writer, the parser and
// the comparators walk those lists.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/export.h"
#include "telemetry/flat_json.h"

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

/// A latency row's numeric fields, in line order (after its "pattern" and
/// "outcome" names). CompareSummaries compares every one.
inline constexpr RecordField<LatencyRow> kLatencyRowFields[] = {
    {"count", &LatencyRow::count},   {"p50_us", &LatencyRow::p50_us},
    {"p95_us", &LatencyRow::p95_us}, {"p99_us", &LatencyRow::p99_us},
    {"max_us", &LatencyRow::max_us}, {"mean_us", &LatencyRow::mean_us},
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

/// One field of a summary's energy account or plan tallies.
struct AccountField {
  const char* section;  ///< the summary file's object that holds it
  const char* key;
  FieldMember<Summary> member;
  bool gated;  ///< CompareAccounts compares it
  /// Its key on a rolling_final line, where that differs from `key`.
  const char* rolling_key = nullptr;
};

inline constexpr bool kGated = true;

/// The account fields in summary-file order: the "energy" object, then
/// the "plans" object. A rolling_final line carries every field but
/// ledger_enclosure_j, which therefore reads as 0 from it.
inline constexpr AccountField kAccountFields[] = {
    {"energy", "enclosure_j", &Summary::enclosure_energy_j, kGated,
     "enclosure_energy_j"},
    {"energy", "controller_j", &Summary::controller_energy_j, kGated,
     "controller_energy_j"},
    {"energy", "total_j", &Summary::total_energy_j, kGated,
     "total_energy_j"},
    {"energy", "has_ledger", &Summary::has_ledger, !kGated, "has_finals"},
    {"energy", "ledger_enclosure_j", &Summary::ledger_enclosure_j, !kGated},
    {"energy", "reconcile_rel_err", &Summary::reconcile_rel_err, kGated},
    {"energy", "off_credit_j", &Summary::off_credit_j, kGated},
    {"energy", "off_debit_j", &Summary::off_debit_j, kGated},
    {"energy", "net_saving_j", &Summary::net_saving_j, kGated},
    {"energy", "advisory_credit_j", &Summary::advisory_credit_j, kGated},
    {"energy", "advisory_debit_j", &Summary::advisory_debit_j, kGated},
    {"energy", "mispredict_loss_j", &Summary::mispredict_loss_j, kGated},
    {"plans", "plans", &Summary::plans, kGated},
    {"plans", "decisions", &Summary::decisions, kGated},
    {"plans", "off_windows", &Summary::off_windows, kGated},
    {"plans", "mispredicts", &Summary::mispredicts, kGated},
    {"plans", "migrations", &Summary::migrations, kGated},
    {"plans", "preloads", &Summary::preloads, kGated},
    {"plans", "write_delays", &Summary::write_delays, kGated},
};

/// The summary of a run whose ledger is already built: identity and
/// measured energies from `meta`, the account and tallies from `ledger`,
/// latency digests from meta.latency.
Summary SummaryFromLedger(const ExportMeta& meta, const EnergyLedger& ledger);

/// Builds the summary from a capture (meta + events). When `out_ledger`
/// is non-null the full ledger is copied out for detailed reporting.
Summary BuildSummary(const ExportMeta& meta, const std::vector<Event>& events,
                     EnergyLedger* out_ledger = nullptr);

/// Writes the summary JSON with the stable field order described above;
/// a failed write or close is an IoError.
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

/// Compares the gated account fields of two summaries (each diff named
/// "section.key", in kAccountFields order) with a relative tolerance
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
