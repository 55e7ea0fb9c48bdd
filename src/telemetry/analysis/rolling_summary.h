#ifndef ECOSTORE_TELEMETRY_ANALYSIS_ROLLING_SUMMARY_H_
#define ECOSTORE_TELEMETRY_ANALYSIS_ROLLING_SUMMARY_H_

// Rolling windows over the streaming ledger: a StreamConsumer that owns
// an IncrementalEnergyLedger, closes fixed sim-time windows [kW, (k+1)W)
// as the frontier passes them, and reports each window as the exact
// difference of the ledger's cumulative exact account (off-window
// credit/debit/actual/dwell, mispredict flags, per-enclosure roll-up,
// stream tallies). Advisory entries are deliberately NOT windowed — their
// model is future-dependent (plan-end bounded), so they only appear in
// the final cumulative record.
//
// Retention is bounded: at most Options::retention closed windows are
// kept in memory; the JSONL sink (when set) receives every window as an
// append-only line flushed immediately, which is what `eco_report tail`
// follows. Window semantics, the latency-delta attribution rule and the
// equivalence argument are documented in DESIGN.md §14.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "telemetry/analysis/incremental_ledger.h"
#include "telemetry/analysis/latency_histogram.h"

namespace ecostore::telemetry::analysis {

/// One closed rolling window (all energy fields are window deltas of the
/// exact account; `cum_*` fields are the cumulative totals at `end`).
struct RollingWindow {
  int64_t index = 0;
  SimTime start = 0;
  SimTime end = 0;
  bool terminal = false;  ///< the remainder window closed at run end

  // Exact-account deltas.
  double credit_j = 0.0;
  double debit_j = 0.0;
  double actual_j = 0.0;
  SimDuration dwell_us = 0;
  int64_t off_windows = 0;
  int64_t mispredicts = 0;
  double mispredict_loss_j = 0.0;

  // Stream-tally deltas.
  int64_t decisions = 0;
  int64_t migrations = 0;
  int64_t preloads = 0;
  int64_t write_delays = 0;
  int64_t write_delay_admits = 0;
  int64_t write_delay_flushes = 0;
  int64_t write_delay_flush_bytes = 0;

  // Cumulative exact account at window end.
  double cum_credit_j = 0.0;
  double cum_debit_j = 0.0;
  int64_t cum_off_windows = 0;
  int64_t cum_mispredicts = 0;

  /// Per-enclosure roll-up of the off windows that closed in this window.
  struct EncRoll {
    EnclosureId enclosure = kInvalidEnclosure;
    int64_t windows = 0;
    int64_t mispredicts = 0;
    double credit_j = 0.0;
    double debit_j = 0.0;
    SimDuration dwell_us = 0;
  };
  std::vector<EncRoll> enclosures;

  /// Mispredicted off windows that closed in this window.
  struct Flag {
    EnclosureId enclosure = kInvalidEnclosure;
    SimTime start = 0;
    SimTime end = 0;
    int32_t plan = 0;
    double loss_j = 0.0;
    WakeCause wake = WakeCause::kDemand;
    DataItemId wake_item = kInvalidDataItem;
  };
  std::vector<Flag> flags;

  /// Latency deltas per non-empty (pattern, outcome) cell, diffed from
  /// the live cumulative book (serial engine only; empty otherwise).
  struct LatCell {
    uint8_t pattern = kPatternUnclassified;
    uint8_t outcome = 0;
    LatencyHistogram hist;
  };
  std::vector<LatCell> latency;
};

/// Prints one window as the aligned row shared by the live progress sink,
/// `eco_report tail` (rolling or capture input) and `eco_report score
/// --window`, so one window reads the same on every path.
void PrintWindowRow(std::FILE* out, const char* prefix,
                    const RollingWindow& w);

/// \brief The rolling-window consumer (see file header).
class RollingSummary : public StreamConsumer {
 public:
  struct Options {
    /// Window length in sim time. Must be > 0.
    SimDuration window_us = kMinute;
    /// Closed windows kept in memory (oldest dropped first).
    size_t retention = 256;
    /// Live cumulative latency book to diff per window (may be null).
    /// Diffed once per window close — when the pump cadence equals the
    /// window length, the delta is exactly the window's I/Os.
    const LatencyBook* book = nullptr;
    /// Append-only JSONL sink, one line per window plus a rolling_meta
    /// head and a rolling_final trailer; flushed per line so the file is
    /// tailable mid-run. Not owned. May be null.
    std::FILE* jsonl = nullptr;
    /// Human progress sink (e.g. stdout), one PrintWindowRow per window.
    /// Not owned. May be null.
    std::FILE* progress = nullptr;
    const char* progress_prefix = "[rolling]";
  };

  RollingSummary(const ExportMeta& meta, const Options& options);

  // StreamConsumer:
  void OnEvent(const Event& event) override;
  void OnFrontier(SimTime frontier) override;
  void OnFinish(const StreamFinal& final) override;

  const std::deque<RollingWindow>& windows() const { return windows_; }
  int64_t windows_closed() const { return windows_closed_; }
  const IncrementalEnergyLedger& ledger() const { return ledger_; }
  /// Full batch-equivalent ledger (after OnFinish: the whole run).
  EnergyLedger FinalLedger() const { return ledger_.Snapshot(); }
  bool finished() const { return finished_; }
  const StreamFinal& final_record() const { return final_; }

 private:
  void CloseWindow(SimTime end, bool terminal);
  void WriteMetaLine();
  void WriteWindowLine(const RollingWindow& w);
  void WriteFinalLine();

  Options options_;
  IncrementalEnergyLedger ledger_;

  SimTime win_start_ = 0;
  SimTime win_end_ = 0;
  int64_t windows_closed_ = 0;
  std::deque<RollingWindow> windows_;

  // Previous cumulative exact-account snapshot (scalars + off-window
  // index), diffed at each close.
  struct Cum {
    double credit_j = 0.0;
    double debit_j = 0.0;
    double actual_j = 0.0;
    SimDuration dwell_us = 0;
    int64_t mispredicts = 0;
    double mispredict_loss_j = 0.0;
    int64_t decisions = 0;
    int64_t migrations = 0;
    int64_t preloads = 0;
    int64_t write_delays = 0;
    int64_t write_delay_admits = 0;
    int64_t write_delay_flushes = 0;
    int64_t write_delay_flush_bytes = 0;
  };
  Cum prev_;
  size_t prev_off_count_ = 0;
  LatencyBook prev_book_;

  bool finished_ = false;
  StreamFinal final_;
};

}  // namespace ecostore::telemetry::analysis

#endif  // ECOSTORE_TELEMETRY_ANALYSIS_ROLLING_SUMMARY_H_
