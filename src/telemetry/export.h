#ifndef ECOSTORE_TELEMETRY_EXPORT_H_
#define ECOSTORE_TELEMETRY_EXPORT_H_

// Exporters for a drained telemetry stream:
//  - JSONL: one self-describing JSON object per line (line 1 is run
//    metadata), the interchange format `tools/eco_report` and the
//    round-trip tests read back;
//  - per-enclosure power-state timeline CSV, derived from the
//    kPowerState events (the SpinningUp -> On edge is reconstructed from
//    the spin-up latency carried in the event payload);
//  - Chrome trace_event JSON for chrome://tracing / Perfetto: power
//    states as complete ("X") spans per enclosure, decisions and
//    migration milestones as instants, simulator stats as counters.
//
// Every writer reports a failed write or close as an IoError.

#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/analysis/latency_histogram.h"
#include "telemetry/event.h"

namespace ecostore::telemetry {

/// One (pattern, outcome) latency histogram captured with a run.
struct LatencySlot {
  uint8_t pattern = analysis::kPatternUnclassified;
  uint8_t outcome = 0;
  analysis::LatencyHistogram hist;
};

/// Run identification written into every export. Since PR 5 the meta also
/// carries the power model, the final measured energies and the latency
/// book, which makes a capture self-describing: the offline analyzer
/// (telemetry/analysis/) produces the identical summary from a parsed
/// capture and from the in-process stream. Captures written by older
/// builds parse with has_power_model == false and an empty latency book.
struct ExportMeta {
  std::string workload;
  std::string policy;
  int num_enclosures = 0;
  SimDuration duration = 0;

  /// Power / cache model parameters (storage::StorageConfig excerpt).
  bool has_power_model = false;
  double idle_power_w = 0.0;
  double active_power_w = 0.0;
  double off_power_w = 0.0;
  double spinup_power_w = 0.0;
  double controller_power_w = 0.0;
  SimDuration spinup_time_us = 0;
  SimDuration break_even_us = 0;
  SimDuration spindown_timeout_us = 0;
  int64_t cache_total_bytes = 0;
  int64_t preload_area_bytes = 0;
  int64_t write_delay_area_bytes = 0;

  /// Final measured energies (ExperimentMetrics counterpart; %.17g
  /// round-trips doubles exactly, so reconciliation is exact).
  double enclosure_energy_j = 0.0;
  double controller_energy_j = 0.0;

  /// Per-(pattern, outcome) service-time histograms; empty cells omitted.
  std::vector<LatencySlot> latency;
};

/// The meta line's power-model keys, in line order. They follow a
/// "has_power_model":1 key and are written (and read) only when the meta
/// has a power model.
inline constexpr RecordField<ExportMeta> kPowerModelFields[] = {
    {"idle_power_w", &ExportMeta::idle_power_w},
    {"active_power_w", &ExportMeta::active_power_w},
    {"off_power_w", &ExportMeta::off_power_w},
    {"spinup_power_w", &ExportMeta::spinup_power_w},
    {"controller_power_w", &ExportMeta::controller_power_w},
    {"spinup_time_us", &ExportMeta::spinup_time_us},
    {"break_even_us", &ExportMeta::break_even_us},
    {"spindown_timeout_us", &ExportMeta::spindown_timeout_us},
    {"cache_total_bytes", &ExportMeta::cache_total_bytes},
    {"preload_area_bytes", &ExportMeta::preload_area_bytes},
    {"write_delay_area_bytes", &ExportMeta::write_delay_area_bytes},
    {"enclosure_energy_j", &ExportMeta::enclosure_energy_j},
    {"controller_energy_j", &ExportMeta::controller_energy_j},
};

Status WriteJsonl(const std::string& path, const ExportMeta& meta,
                  const std::vector<Event>& events);

/// Parses a WriteJsonl file back (the eco_report / round-trip-test
/// reader). Unknown *type* values are skipped so the format can grow, but
/// structurally broken input — a line that is not a JSON object, an event
/// line with an unknown kind or an enclosure id outside the meta's range
/// (see CaptureTailParser::Consume), or a file whose event count
/// disagrees with the meta header (truncation) — fails with the offending
/// line number.
Status ParseJsonl(const std::string& path, ExportMeta* meta,
                  std::vector<Event>* events);

/// One incremental read of a growing JSONL file.
struct JsonlChunk {
  /// Complete ('\n'-terminated) lines, with the newline stripped.
  std::vector<std::string> lines;
  /// Byte offset just past the last complete line: resume here.
  int64_t next_offset = 0;
  /// The read ended on a partial line (a writer mid-append). The partial
  /// bytes are NOT consumed — next_offset points at their start, so the
  /// next call re-reads the line once the writer finishes it.
  bool partial_tail = false;
};

/// Reads every complete line of `path` starting at byte `offset` (the
/// follow/tail reader for in-flight captures). A truncated final line is
/// a normal condition, not an error: it is reported via
/// JsonlChunk::partial_tail and left for the next call, which resumes at
/// JsonlChunk::next_offset. Only open/seek failures return non-OK.
Status ReadJsonlChunk(const std::string& path, int64_t offset,
                      JsonlChunk* chunk);

/// \brief Incremental capture parser: feed it complete lines (e.g. from
/// ReadJsonlChunk) in file order and it accumulates the same (meta,
/// events) ParseJsonl produces — but it never fails on a file that is
/// still being written, because the declared-event-count reconciliation
/// is the caller's to run once the writer is known to be done
/// (complete() turns true when every declared event has been consumed).
/// ParseJsonl is implemented on top of this parser, so the two readers
/// cannot drift apart.
class CaptureTailParser {
 public:
  /// Consumes one newline-stripped line. Blank lines are ignored; unknown
  /// "type" values are skipped (format growth). A negative
  /// num_enclosures, or an event whose enclosure / from / to id lies
  /// outside [-1, num_enclosures), is an InvalidArgument. Errors carry no
  /// position — the caller knows the line/offset and adds that context.
  Status Consume(const std::string& line);

  bool have_meta() const { return have_meta_; }
  const ExportMeta& meta() const { return meta_; }

  /// Events consumed so far and not yet taken.
  const std::vector<Event>& events() const { return events_; }
  /// Moves the pending events out (streaming callers bound memory by
  /// draining between chunks); consumed_events() keeps the total.
  std::vector<Event> TakeEvents();

  /// Event count the meta line declared, or -1 before the meta line (and
  /// for captures from writers that omit it).
  int64_t declared_events() const { return declared_events_; }
  int64_t consumed_events() const { return consumed_events_; }
  /// True once the meta line was seen and every declared event parsed —
  /// i.e. the writer finished the capture.
  bool complete() const {
    return have_meta_ && declared_events_ >= 0 &&
           consumed_events_ >= declared_events_;
  }

 private:
  ExportMeta meta_;
  bool have_meta_ = false;
  int64_t declared_events_ = -1;
  int64_t consumed_events_ = 0;
  std::vector<Event> events_;
};

/// One dwell interval of an enclosure's power FSM.
struct PowerSegment {
  EnclosureId enclosure = kInvalidEnclosure;
  SimTime start = 0;
  SimTime end = 0;
  uint8_t state = 2;  ///< storage::PowerState numeric value (2 == On)
};

const char* PowerSegmentStateName(uint8_t state);

/// Reconstructs every enclosure's Off / SpinningUp / On dwell timeline
/// from the kPowerState events (all enclosures start On at t = 0), for
/// enclosures [0, meta.num_enclosures); events naming others are skipped.
std::vector<PowerSegment> BuildPowerTimeline(const ExportMeta& meta,
                                             const std::vector<Event>& events);

Status WritePowerTimelineCsv(const std::string& path, const ExportMeta& meta,
                             const std::vector<Event>& events);

Status WriteChromeTrace(const std::string& path, const ExportMeta& meta,
                        const std::vector<Event>& events);

/// Writes all three exports: `<base>.jsonl`, `<base>.power.csv` and
/// `<base>.trace.json` (a trailing ".jsonl" on `base` is stripped first,
/// so `--telemetry=run.jsonl` and `--telemetry=run` are equivalent).
Status ExportAll(const std::string& base, const ExportMeta& meta,
                 const std::vector<Event>& events);

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_EXPORT_H_
