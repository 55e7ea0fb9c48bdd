// eco_report: renders a --telemetry JSONL capture for humans.
//
//   eco_report audit <run.jsonl>        per-period decision audit log
//   eco_report timeline <run.jsonl>     per-enclosure power-state timeline
//   eco_report diff <a.jsonl> <b.jsonl> compare two captures
//   eco_report score <run.jsonl>        energy ledger + latency digest
//   eco_report tail <file>              follow a growing capture or
//                                       rolling-summary JSONL live
//   eco_report regress <a> <b>          CI gate: nonzero on regression
//
// The input is the JSONL stream written by telemetry::WriteJsonl (the
// bench binaries' --telemetry=<base> flag produces it as <base>.jsonl).
// `regress` also accepts summary JSON files written by
// --telemetry-summary / `score --summary=`; captures and summaries are
// told apart by the first line. `tail` accepts an event capture (windows
// are computed on the fly by the same RollingSummary consumer the
// engines attach) or a --rolling-summary JSONL (windows are rendered as
// written); both readers are partial-last-line safe, so the file may
// still be growing.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
#include "telemetry/flat_json.h"
#include "telemetry/profile/profile_export.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/stream_consumer.h"

namespace ecostore::telemetry {
namespace {

std::string FormatSimTime(SimTime t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fs", ToSeconds(t));
  return buf;
}

std::string DescribeActions(const DecisionPayload& d) {
  std::vector<std::string> parts;
  char buf[64];
  if ((d.actions & kActionMigrate) != 0) {
    std::snprintf(buf, sizeof(buf), "migrate to enclosure %d", d.enclosure);
    parts.push_back(buf);
  }
  if ((d.actions & kActionWriteDelay) != 0) parts.push_back("write-delay");
  if ((d.actions & kActionPreload) != 0) {
    std::snprintf(buf, sizeof(buf), "preload on enclosure %d", d.enclosure);
    parts.push_back(buf);
  }
  if (parts.empty()) return "no action";
  std::string out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) out += " + " + parts[i];
  return out;
}

int LoadOrDie(const std::string& path, ExportMeta* meta,
              std::vector<Event>* events) {
  Status st = ParseJsonl(path, meta, events);
  if (!st.ok()) {
    std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

void PrintHeader(const ExportMeta& meta, size_t n_events) {
  std::printf("workload=%s policy=%s enclosures=%d duration=%s events=%zu\n",
              meta.workload.c_str(), meta.policy.c_str(),
              meta.num_enclosures, FormatSimTime(meta.duration).c_str(),
              n_events);
}

// --- audit ----------------------------------------------------------------

int RunAudit(const std::string& path) {
  ExportMeta meta;
  std::vector<Event> events;
  if (LoadOrDie(path, &meta, &events) != 0) return 1;
  PrintHeader(meta, events.size());

  // Events are ordered by simulated time; decisions of period k precede
  // the kPeriodBoundary event that closed it, so a linear walk buffers
  // decisions until each boundary flushes them.
  std::vector<const Event*> pending;
  const Event* hot_cold = nullptr;
  const Event* adapt = nullptr;
  auto flush = [&](const Event* boundary) {
    if (boundary != nullptr) {
      const PeriodPayload& p = boundary->period;
      std::printf("\nperiod %d  [%s .. %s]  next=%s\n", p.index,
                  FormatSimTime(p.period_start).c_str(),
                  FormatSimTime(boundary->time).c_str(),
                  FormatSimTime(p.next_period).c_str());
    } else if (!pending.empty() || hot_cold != nullptr) {
      std::printf("\n(unterminated period)\n");
    }
    if (hot_cold != nullptr) {
      const HotColdPayload& h = hot_cold->hot_cold;
      std::printf("  partition: %d/%d hot [", h.n_hot, h.n_enclosures);
      for (int32_t e = 0; e < h.n_enclosures && e < 64; ++e) {
        std::printf("%c", (h.hot_mask >> e) & 1 ? 'H' : 'c');
      }
      std::printf("]\n");
    }
    if (adapt != nullptr) {
      const AdaptPayload& a = adapt->adapt;
      std::printf("  period adaptation: %s -> %s (mean long interval %s)\n",
                  FormatSimTime(a.prev_period).c_str(),
                  FormatSimTime(a.next_period).c_str(),
                  FormatSimTime(a.mean_long_interval).c_str());
    }
    for (const Event* e : pending) {
      const DecisionPayload& d = e->decision;
      std::printf(
          "  item %d: %s, %d long intervals, %d%% reads, %d sequences, "
          "%" PRId64 " ios -> %s\n",
          d.item, analysis::PatternSlotName(d.pattern), d.long_intervals,
          (d.read_permille + 5) / 10, d.io_sequences, d.total_ios,
          DescribeActions(d).c_str());
    }
    pending.clear();
    hot_cold = nullptr;
    adapt = nullptr;
  };

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kDecision:
        pending.push_back(&e);
        break;
      case EventKind::kHotCold:
        hot_cold = &e;
        break;
      case EventKind::kPeriodAdapt:
        adapt = &e;
        break;
      case EventKind::kPeriodBoundary:
        flush(&e);
        break;
      default:
        break;
    }
  }
  flush(nullptr);
  return 0;
}

// --- timeline -------------------------------------------------------------

int RunTimeline(const std::string& path) {
  ExportMeta meta;
  std::vector<Event> events;
  if (LoadOrDie(path, &meta, &events) != 0) return 1;
  PrintHeader(meta, events.size());

  std::vector<PowerSegment> segments = BuildPowerTimeline(meta, events);
  EnclosureId current = kInvalidEnclosure;
  // Dwell seconds per enclosure and state (Off, SpinningUp, On).
  std::map<EnclosureId, std::array<double, 3>> dwell;
  for (const PowerSegment& s : segments) {
    if (s.enclosure != current) {
      current = s.enclosure;
      std::printf("\nenclosure %d\n", s.enclosure);
    }
    std::printf("  %10s .. %10s  %-11s  %.1fs\n",
                FormatSimTime(s.start).c_str(), FormatSimTime(s.end).c_str(),
                PowerSegmentStateName(s.state), ToSeconds(s.end - s.start));
    if (s.state < 3) {
      dwell[s.enclosure][s.state] += ToSeconds(s.end - s.start);
    }
  }
  std::printf("\ndwell summary (seconds)\n");
  std::printf("  %-10s %10s %12s %10s\n", "enclosure", "off", "spinning_up",
              "on");
  for (const auto& [enc, by_state] : dwell) {
    std::printf("  %-10d %10.1f %12.1f %10.1f\n", enc, by_state[0],
                by_state[1], by_state[2]);
  }
  return 0;
}

// --- diff -----------------------------------------------------------------

struct RunSummary {
  ExportMeta meta;
  std::map<std::string, int64_t> kind_counts;
  int64_t spinups = 0;
  int64_t spindowns = 0;
  int64_t migrated_bytes = 0;
  int64_t failed_migrations = 0;
  double off_seconds = 0.0;
  int64_t periods = 0;
};

RunSummary Summarize(const ExportMeta& meta, const std::vector<Event>& events) {
  RunSummary s;
  s.meta = meta;
  for (const Event& e : events) {
    s.kind_counts[EventKindName(e.kind)]++;
    switch (e.kind) {
      case EventKind::kPowerState:
        if (e.power.state == 1) s.spinups++;
        if (e.power.state == 0) s.spindowns++;
        break;
      case EventKind::kMigrationEnd:
        if (e.migration.bytes >= 0) {
          s.migrated_bytes += e.migration.bytes;
        } else {
          s.failed_migrations++;
        }
        break;
      case EventKind::kBlockMove:
        s.migrated_bytes += e.migration.bytes;
        break;
      case EventKind::kPeriodBoundary:
        s.periods++;
        break;
      default:
        break;
    }
  }
  for (const PowerSegment& seg : BuildPowerTimeline(meta, events)) {
    if (seg.state == 0) s.off_seconds += ToSeconds(seg.end - seg.start);
  }
  return s;
}

void DiffRow(const char* label, double a, double b, const char* fmt) {
  char va[32], vb[32];
  std::snprintf(va, sizeof(va), fmt, a);
  std::snprintf(vb, sizeof(vb), fmt, b);
  std::printf("  %-22s %14s %14s  %+12.1f\n", label, va, vb, b - a);
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  ExportMeta meta_a, meta_b;
  std::vector<Event> events_a, events_b;
  if (LoadOrDie(path_a, &meta_a, &events_a) != 0) return 1;
  if (LoadOrDie(path_b, &meta_b, &events_b) != 0) return 1;
  RunSummary a = Summarize(meta_a, events_a);
  RunSummary b = Summarize(meta_b, events_b);

  std::printf("  %-22s %14s %14s  %12s\n", "", "A", "B", "delta");
  std::printf("  %-22s %14s %14s\n", "policy", a.meta.policy.c_str(),
              b.meta.policy.c_str());
  DiffRow("periods", static_cast<double>(a.periods),
          static_cast<double>(b.periods), "%.0f");
  DiffRow("spin-ups", static_cast<double>(a.spinups),
          static_cast<double>(b.spinups), "%.0f");
  DiffRow("spin-downs", static_cast<double>(a.spindowns),
          static_cast<double>(b.spindowns), "%.0f");
  DiffRow("enclosure-off seconds", a.off_seconds, b.off_seconds, "%.1f");
  DiffRow("migrated MiB",
          static_cast<double>(a.migrated_bytes) / (1024.0 * 1024.0),
          static_cast<double>(b.migrated_bytes) / (1024.0 * 1024.0), "%.1f");
  DiffRow("failed migrations", static_cast<double>(a.failed_migrations),
          static_cast<double>(b.failed_migrations), "%.0f");

  std::printf("\n  event counts by kind\n");
  std::map<std::string, std::pair<int64_t, int64_t>> merged;
  for (const auto& [kind, count] : a.kind_counts) merged[kind].first = count;
  for (const auto& [kind, count] : b.kind_counts) merged[kind].second = count;
  for (const auto& [kind, counts] : merged) {
    std::printf("  %-22s %14" PRId64 " %14" PRId64 "  %+12" PRId64 "\n",
                kind.c_str(), counts.first, counts.second,
                counts.second - counts.first);
  }
  return 0;
}

// --- score ----------------------------------------------------------------

int RunScore(const std::string& path, const std::string& summary_out) {
  ExportMeta meta;
  std::vector<Event> events;
  if (LoadOrDie(path, &meta, &events) != 0) return 1;
  PrintHeader(meta, events.size());

  analysis::EnergyLedger ledger;
  analysis::Summary summary = analysis::BuildSummary(meta, events, &ledger);

  if (!meta.has_power_model) {
    std::printf("\n(no power model in capture: ledger unavailable; "
                "re-capture with a current build)\n");
  } else {
    std::printf("\nenergy ledger (off windows, exactly accounted)\n");
    std::printf("  %-4s %10s %10s %7s %12s %12s %12s  %s\n", "enc", "start",
                "end", "plan", "actual J", "credit J", "debit J", "wake");
    for (const analysis::OffWindow& w : ledger.off_windows) {
      char wake[96];
      if (w.wake_item != kInvalidDataItem) {
        std::snprintf(wake, sizeof(wake), "%s (item %d)",
                      analysis::WakeCauseName(w.wake), w.wake_item);
      } else {
        std::snprintf(wake, sizeof(wake), "%s",
                      analysis::WakeCauseName(w.wake));
      }
      std::printf("  %-4d %10s %10s %7d %12.1f %12.1f %12.1f  %s%s\n",
                  w.enclosure, FormatSimTime(w.start).c_str(),
                  FormatSimTime(w.end).c_str(), w.plan, w.actual_j,
                  w.credit_j, w.debit_j, wake,
                  w.mispredict ? "  MISPREDICT" : "");
      if (w.mispredict && w.has_culprit) {
        const DecisionPayload& d = w.culprit;
        std::printf("       culprit: plan %d classified item %d as %s "
                    "(%d long intervals, %d%% reads, %d sequences, "
                    "%" PRId64 " ios) -> %s\n",
                    d.plan, d.item, analysis::PatternSlotName(d.pattern),
                    d.long_intervals, (d.read_permille + 5) / 10,
                    d.io_sequences, d.total_ios,
                    DescribeActions(d).c_str());
      }
    }
    std::printf("\n  off windows: %" PRId64 "  dwell %.1fs  "
                "credit %.1f J  debit %.1f J  net saving %.1f J\n",
                summary.off_windows, ToSeconds(ledger.off_dwell_us),
                ledger.off_credit_j, ledger.off_debit_j,
                summary.net_saving_j);
    std::printf("  mispredicts: %" PRId64 " (loss %.1f J)\n",
                ledger.mispredicts, ledger.mispredict_loss_j);

    // Per-enclosure roll-up: where the savings (and the losses) live.
    if (!ledger.off_windows.empty() || !ledger.advisory.empty()) {
      struct Roll {
        int64_t windows = 0;
        SimDuration dwell = 0;
        double credit_j = 0.0;
        double debit_j = 0.0;
        int64_t mispredicts = 0;
        double advisory_credit_j = 0.0;
        double advisory_debit_j = 0.0;
      };
      std::map<EnclosureId, Roll> roll;
      for (const analysis::OffWindow& w : ledger.off_windows) {
        Roll& r = roll[w.enclosure];
        r.windows++;
        r.dwell += w.end - w.start;
        r.credit_j += w.credit_j;
        r.debit_j += w.debit_j;
        if (w.mispredict) r.mispredicts++;
      }
      for (const analysis::AdvisoryEntry& a : ledger.advisory) {
        if (a.enclosure == kInvalidEnclosure) continue;
        Roll& r = roll[a.enclosure];
        r.advisory_credit_j += a.credit_j;
        r.advisory_debit_j += a.debit_j;
      }
      std::printf("\nper-enclosure roll-up\n");
      std::printf("  %-4s %8s %9s %12s %12s %12s %6s %12s %12s\n", "enc",
                  "windows", "dwell s", "credit J", "debit J", "net J",
                  "mis", "adv cr J", "adv db J");
      for (const auto& [enclosure, r] : roll) {
        std::printf("  %-4d %8" PRId64 " %9.1f %12.1f %12.1f %12.1f "
                    "%6" PRId64 " %12.3f %12.3f\n",
                    enclosure, r.windows, ToSeconds(r.dwell), r.credit_j,
                    r.debit_j, r.credit_j - r.debit_j, r.mispredicts,
                    r.advisory_credit_j, r.advisory_debit_j);
      }
    }

    std::printf("\nwrite-delay membership (per-item attribution): "
                "%" PRId64 " admits, %" PRId64 " flushes "
                "(%" PRId64 " bytes destaged on exit)\n",
                ledger.write_delay_admits, ledger.write_delay_flushes,
                ledger.write_delay_flush_bytes);

    if (!ledger.advisory.empty()) {
      std::printf("\nadvisory entries (model estimates, not reconciled)\n");
      for (const analysis::AdvisoryEntry& a : ledger.advisory) {
        std::printf("  %10s  %-20s plan %-4d item %-6d enc %-4d "
                    "credit %10.3f J  debit %10.3f J\n",
                    FormatSimTime(a.time).c_str(),
                    analysis::AdvisoryKindName(a.kind), a.plan, a.item,
                    a.enclosure, a.credit_j, a.debit_j);
      }
      std::printf("  advisory total: credit %.1f J  debit %.1f J\n",
                  ledger.advisory_credit_j, ledger.advisory_debit_j);
    }

    if (ledger.has_finals) {
      std::printf("\nreconciliation: ledger %.1f + %.1f J vs measured "
                  "%.1f + %.1f J (rel err %.3g)\n",
                  ledger.ledger_enclosure_j, ledger.ledger_controller_j,
                  meta.enclosure_energy_j, meta.controller_energy_j,
                  ledger.reconcile_rel_err);
    } else {
      std::printf("\nreconciliation: unavailable (capture has no "
                  "energy_final events)\n");
    }
  }

  if (!summary.latency.empty()) {
    std::printf("\nlatency (microseconds, log-linear histogram digests)\n");
    std::printf("  %-4s %-10s %10s %10s %10s %10s %10s %12s\n", "pat",
                "outcome", "count", "p50", "p95", "p99", "max", "mean");
    for (const analysis::LatencyRow& r : summary.latency) {
      std::printf("  %-4s %-10s %10" PRId64 " %10" PRId64 " %10" PRId64
                  " %10" PRId64 " %10" PRId64 " %12.1f\n",
                  analysis::PatternSlotName(r.pattern),
                  analysis::IoOutcomeName(r.outcome), r.count, r.p50_us,
                  r.p95_us, r.p99_us, r.max_us, r.mean_us);
    }
  }

  if (!summary_out.empty()) {
    Status st = analysis::WriteSummaryJson(summary_out, summary);
    if (!st.ok()) {
      std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nsummary -> %s\n", summary_out.c_str());
  }
  return 0;
}

// --- rolling windows (score --window / tail) ------------------------------

void PrintRollingHeader(SimDuration window_us) {
  std::printf("\nrolling windows (%.0fs)\n", ToSeconds(window_us));
}

/// The account of a rolling_final JSONL line. The line carries no
/// latency, so only the account fields are filled.
analysis::Summary SummaryFromRollingFinal(const FlatJson& json) {
  analysis::Summary s;
  for (const analysis::AccountField& field : analysis::kAccountFields) {
    json.Read(field.rolling_key != nullptr ? field.rolling_key : field.key,
              field.member, &s);
  }
  return s;
}

void PrintFinalAccount(int64_t windows, const analysis::Summary& a) {
  std::printf("\nfinal: %" PRId64 " windows  net saving %.1f J "
              "(credit %.1f debit %.1f)  mispredicts %" PRId64
              " (loss %.1f J)\n",
              windows, a.net_saving_j, a.off_credit_j, a.off_debit_j,
              a.mispredicts, a.mispredict_loss_j);
  if (a.has_ledger) {
    std::printf("       measured %.1f + %.1f J, ledger reconcile rel err "
                "%.3g\n",
                a.enclosure_energy_j, a.controller_energy_j,
                a.reconcile_rel_err);
  }
}

/// CI gate: the streamed final account must agree with the golden batch
/// summary on every CompareAccounts field.
int ReconcileAccount(const analysis::Summary& live,
                     const std::string& golden_path, double tolerance) {
  analysis::Summary golden;
  Status st = analysis::ParseSummaryFile(golden_path, &golden);
  if (!st.ok()) {
    std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::vector<analysis::SummaryDiff> diffs =
      analysis::CompareAccounts(live, golden, tolerance);
  if (!diffs.empty()) {
    std::printf("\nreconcile vs %s (tolerance %g)\n", golden_path.c_str(),
                tolerance);
    std::printf("  %-28s %16s %16s %12s\n", "field", "live", "golden",
                "rel err");
    for (const analysis::SummaryDiff& d : diffs) {
      std::printf("  %-28s %16.6g %16.6g %12.3g\n", d.field.c_str(), d.a,
                  d.b, d.rel_err);
    }
    std::printf("RECONCILE FAIL: %zu field(s) differ beyond tolerance\n",
                diffs.size());
    return 1;
  }
  std::printf("RECONCILE PASS: live rolling account matches %s\n",
              golden_path.c_str());
  return 0;
}

/// Runs the capture through the engines' RollingSummary consumer: parse,
/// feed in drained order, finish with the measured energies from the
/// meta line. Returns the consumer for rendering.
std::unique_ptr<analysis::RollingSummary> RollCapture(
    const ExportMeta& meta, const std::vector<Event>& events,
    SimDuration window_us) {
  analysis::RollingSummary::Options opt;
  opt.window_us = window_us;
  opt.retention = static_cast<size_t>(-1);
  auto rolling = std::make_unique<analysis::RollingSummary>(meta, opt);
  for (const Event& e : events) rolling->OnEvent(e);
  StreamFinal fin;
  fin.at = meta.duration;
  fin.enclosure_energy_j = meta.enclosure_energy_j;
  fin.controller_energy_j = meta.controller_energy_j;
  fin.has_energy = meta.has_power_model;
  rolling->OnFinish(fin);
  return rolling;
}

int RunScoreWindows(const std::string& path, SimDuration window_us,
                    const std::string& summary_out) {
  ExportMeta meta;
  std::vector<Event> events;
  if (LoadOrDie(path, &meta, &events) != 0) return 1;
  PrintHeader(meta, events.size());
  if (!meta.has_power_model) {
    std::printf("\n(no power model in capture: rolling ledger unavailable; "
                "re-capture with a current build)\n");
    return 1;
  }
  std::unique_ptr<analysis::RollingSummary> rolling =
      RollCapture(meta, events, window_us);
  PrintRollingHeader(window_us);
  for (const analysis::RollingWindow& w : rolling->windows()) {
    analysis::PrintWindowRow(stdout, "", w);
    for (const analysis::RollingWindow::Flag& f : w.flags) {
      std::printf("        MISPREDICT enc %d [%s,%s] plan %d loss %.1f J "
                  "wake %s%s\n",
                  f.enclosure, FormatSimTime(f.start).c_str(),
                  FormatSimTime(f.end).c_str(), f.plan, f.loss_j,
                  analysis::WakeCauseName(f.wake),
                  f.wake_item != kInvalidDataItem ? " (item)" : "");
    }
  }
  PrintFinalAccount(rolling->windows_closed(),
                    analysis::SummaryFromLedger(meta, rolling->FinalLedger()));
  if (!summary_out.empty()) {
    analysis::Summary summary = analysis::BuildSummary(meta, events);
    Status st = analysis::WriteSummaryJson(summary_out, summary);
    if (!st.ok()) {
      std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nsummary -> %s\n", summary_out.c_str());
  }
  return 0;
}

// --- tail -----------------------------------------------------------------

struct TailOptions {
  bool once = false;          ///< one pass; do not poll for growth
  double interval_s = 0.5;    ///< poll interval while following
  SimDuration window_us = kMinute;  ///< window length for capture inputs
  std::string reconcile;      ///< golden summary path (CI gate)
  double tolerance = 1e-6;
};

int RunTail(const std::string& path, const TailOptions& opt) {
  enum class Mode { kUnknown, kRolling, kCapture };
  Mode mode = Mode::kUnknown;
  int64_t offset = 0;
  CaptureTailParser parser;  // capture mode
  std::unique_ptr<analysis::RollingSummary> rolling;  // capture mode
  analysis::Summary account;
  int64_t windows = 0;
  bool saw_final = false;

  while (true) {
    JsonlChunk chunk;
    Status st = ReadJsonlChunk(path, offset, &chunk);
    if (!st.ok()) {
      std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
      return 1;
    }
    offset = chunk.next_offset;
    for (const std::string& line : chunk.lines) {
      FlatJson json{line};
      if (mode == Mode::kUnknown) {
        std::string type = json.Str("type");
        if (type == "rolling_meta") {
          mode = Mode::kRolling;
        } else if (type == "meta") {
          mode = Mode::kCapture;
        } else {
          std::fprintf(stderr,
                       "eco_report: %s: first line is neither a capture "
                       "meta nor a rolling_meta line\n",
                       path.c_str());
          return 1;
        }
      }
      if (mode == Mode::kRolling) {
        std::string type = json.Str("type");
        if (type == "rolling_meta") {
          std::printf("workload=%s policy=%s enclosures=%lld window=%.0fs\n",
                      json.Str("workload").c_str(),
                      json.Str("policy").c_str(),
                      static_cast<long long>(json.Int("num_enclosures")),
                      ToSeconds(json.Int("window_us")));
        } else if (type == "window") {
          analysis::RollingWindow w;
          w.index = json.Int("index");
          w.start = json.Int("start_us");
          w.end = json.Int("end_us");
          w.terminal = json.Int("terminal") != 0;
          w.credit_j = json.Dbl("credit_j");
          w.debit_j = json.Dbl("debit_j");
          w.off_windows = json.Int("off_windows");
          w.mispredicts = json.Int("mispredicts");
          w.cum_credit_j = json.Dbl("cum_credit_j");
          w.cum_debit_j = json.Dbl("cum_debit_j");
          w.cum_mispredicts = json.Int("cum_mispredicts");
          analysis::PrintWindowRow(stdout, "[tail]", w);
        } else if (type == "rolling_final") {
          account = SummaryFromRollingFinal(json);
          windows = json.Int("windows");
          saw_final = true;
        }
        // Unknown types are skipped (format growth).
      } else {
        Status cst = parser.Consume(line);
        if (!cst.ok()) {
          std::fprintf(stderr, "eco_report: %s: %s\n", path.c_str(),
                       cst.message().c_str());
          return 1;
        }
        if (rolling == nullptr && parser.have_meta()) {
          analysis::RollingSummary::Options ropt;
          ropt.window_us = opt.window_us;
          ropt.retention = 1;
          ropt.progress = stdout;
          ropt.progress_prefix = "[tail]";
          rolling = std::make_unique<analysis::RollingSummary>(parser.meta(),
                                                               ropt);
          PrintHeader(parser.meta(),
                      static_cast<size_t>(
                          std::max<int64_t>(parser.declared_events(), 0)));
        }
        if (rolling != nullptr) {
          for (const Event& e : parser.TakeEvents()) rolling->OnEvent(e);
        }
      }
    }
    if (mode == Mode::kCapture && rolling != nullptr && parser.complete() &&
        !saw_final) {
      // Every declared event has arrived: the writer is done; finish with
      // the measured energies the meta line carries.
      const ExportMeta& meta = parser.meta();
      StreamFinal fin;
      fin.at = meta.duration;
      fin.enclosure_energy_j = meta.enclosure_energy_j;
      fin.controller_energy_j = meta.controller_energy_j;
      fin.has_energy = meta.has_power_model;
      rolling->OnFinish(fin);
      account = analysis::SummaryFromLedger(meta, rolling->FinalLedger());
      windows = rolling->windows_closed();
      saw_final = true;
    }
    if (saw_final || opt.once) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int64_t>(std::max(opt.interval_s, 0.05) * 1000.0)));
  }

  if (saw_final) {
    PrintFinalAccount(windows, account);
  } else {
    std::printf("(no final record yet — capture still in flight, resume "
                "offset %lld)\n",
                static_cast<long long>(offset));
  }
  if (!opt.reconcile.empty()) {
    if (!saw_final) {
      std::fprintf(stderr,
                   "eco_report: cannot reconcile: no final record in %s\n",
                   path.c_str());
      return 1;
    }
    return ReconcileAccount(account, opt.reconcile, opt.tolerance);
  }
  return 0;
}

// --- regress --------------------------------------------------------------

// A capture's first line is its meta line; a summary file never contains
// "type":"meta". Sniffing the head keeps `regress` usable with either,
// so the CI gate can compare a fresh capture against a checked-in golden
// summary without re-running the golden workload.
bool LooksLikeCapture(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char head[256];
  size_t n = std::fread(head, 1, sizeof(head) - 1, f);
  std::fclose(f);
  head[n] = '\0';
  const char* newline = std::strchr(head, '\n');
  size_t line_len = newline != nullptr ? static_cast<size_t>(newline - head)
                                       : n;
  std::string first(head, line_len);
  return first.find("\"type\":\"meta\"") != std::string::npos;
}

int LoadSummaryOrDie(const std::string& path, analysis::Summary* summary) {
  Status st;
  if (LooksLikeCapture(path)) {
    ExportMeta meta;
    std::vector<Event> events;
    st = ParseJsonl(path, &meta, &events);
    if (st.ok()) *summary = analysis::BuildSummary(meta, events);
  } else {
    st = analysis::ParseSummaryFile(path, summary);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunRegress(const std::string& path_a, const std::string& path_b,
               double tolerance) {
  analysis::Summary a, b;
  if (LoadSummaryOrDie(path_a, &a) != 0) return 1;
  if (LoadSummaryOrDie(path_b, &b) != 0) return 1;

  std::vector<analysis::SummaryDiff> diffs =
      analysis::CompareSummaries(a, b, tolerance);
  std::printf("A: %s / %s   B: %s / %s   tolerance %g\n", a.workload.c_str(),
              a.policy.c_str(), b.workload.c_str(), b.policy.c_str(),
              tolerance);
  if (diffs.empty()) {
    std::printf("PASS: no gate field differs beyond tolerance\n");
    return 0;
  }
  std::printf("REGRESSION: %zu field(s) differ beyond tolerance\n",
              diffs.size());
  std::printf("  %-36s %16s %16s %12s\n", "field", "A", "B", "rel err");
  for (const analysis::SummaryDiff& d : diffs) {
    std::printf("  %-36s %16.6g %16.6g %12.3g\n", d.field.c_str(), d.a, d.b,
                d.rel_err);
  }
  return 1;
}

// --- profile --------------------------------------------------------------
//
// Renders a wall-clock profile capture (`--profile=<base>` on the bench
// binaries): a top-down phase table over the engine's own wall time. This
// is the real-time clock domain — `score`/`audit` above read simulated time.

/// Self-time sweep: spans are ordered by start time, so a stack of
/// still-open spans attributes each span's duration to its innermost
/// enclosing span as child time. self = dur - children.
struct ProfilePhaseAgg {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<int64_t> durs;
};

double ProfilePct(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return static_cast<double>(sorted[idx]);
}

int RunProfile(const std::string& arg) {
  // Accept either the export base or the .jsonl path itself.
  std::string path = arg;
  if (path.size() < 6 || path.compare(path.size() - 6, 6, ".jsonl") != 0) {
    path += ".profile.jsonl";
  }
  profile::ProfileMeta meta;
  std::vector<profile::Span> spans;
  Status st = profile::ParseProfileJsonl(path, &meta, &spans);
  if (!st.ok()) {
    std::fprintf(stderr, "eco_report: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("workload=%s policy=%s host_cpus=%d wall=%.2fs spans=%llu\n",
              meta.workload.c_str(), meta.policy.c_str(), meta.host_cpus,
              static_cast<double>(meta.wall_ns) / 1e9,
              static_cast<unsigned long long>(meta.spans));
  if (spans.empty()) {
    std::printf("no spans recorded\n");
    return 0;
  }

  // Top-down phase table. Spans arrive ordered by start time (the export
  // preserves Drain()'s merge order); the self-time sweep keeps a stack of
  // open spans, popping spans that ended before the next one starts and
  // charging nested durations to the innermost enclosing span.
  constexpr int kPhases = static_cast<int>(profile::Phase::kCount);
  std::array<ProfilePhaseAgg, kPhases> agg{};
  struct Open {
    int64_t end_ns;
    int phase;
    int64_t child_ns = 0;
  };
  std::vector<Open> stack;
  auto close = [&](size_t keep) {
    while (stack.size() > keep) {
      const Open top = stack.back();
      stack.pop_back();
      agg[top.phase].self_ns -= top.child_ns;
      if (!stack.empty()) stack.back().child_ns += top.child_ns;
    }
  };
  for (const profile::Span& s : spans) {
    if (s.phase >= kPhases) continue;
    ProfilePhaseAgg& a = agg[s.phase];
    a.count++;
    a.total_ns += s.dur_ns;
    a.self_ns += s.dur_ns;  // children subtracted as the stack unwinds
    a.durs.push_back(s.dur_ns);
    size_t keep = stack.size();
    while (keep > 0 && stack[keep - 1].end_ns <= s.start_ns) keep--;
    close(keep);
    if (!stack.empty()) stack.back().child_ns += s.dur_ns;
    stack.push_back(Open{s.start_ns + s.dur_ns, s.phase});
  }
  close(0);

  std::printf("\nphase table (wall-clock; self excludes nested phases):\n");
  std::printf("  %-18s %8s %12s %12s %10s %10s\n", "phase", "count",
              "total ms", "self ms", "p50 us", "p99 us");
  for (int p = 1; p < kPhases; ++p) {
    ProfilePhaseAgg& a = agg[p];
    if (a.count == 0) continue;
    std::sort(a.durs.begin(), a.durs.end());
    std::printf("  %-18s %8lld %12.2f %12.2f %10.1f %10.1f\n",
                profile::PhaseName(static_cast<profile::Phase>(p)),
                static_cast<long long>(a.count),
                static_cast<double>(a.total_ns) / 1e6,
                static_cast<double>(a.self_ns) / 1e6,
                ProfilePct(a.durs, 0.5) / 1e3, ProfilePct(a.durs, 0.99) / 1e3);
  }

  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: eco_report audit <run.jsonl>\n"
               "       eco_report timeline <run.jsonl>\n"
               "       eco_report diff <a.jsonl> <b.jsonl>\n"
               "       eco_report score <run.jsonl> [--summary=<path>]\n"
               "                 [--window=<sec>]\n"
               "         (--window renders the run as rolling windows via\n"
               "          the live RollingSummary consumer)\n"
               "       eco_report tail <file> [--once] [--interval=<sec>]\n"
               "                 [--window=<sec>] [--reconcile=<summary>\n"
               "                 [--tolerance=<t>]]\n"
               "         (follows a growing event capture or rolling-\n"
               "          summary JSONL; partial last lines are resumed,\n"
               "          not errors. --reconcile gates the final rolling\n"
               "          account against a golden summary: exits 1 on\n"
               "          mismatch)\n"
               "       eco_report regress <a> <b> [--tolerance=<t>]\n"
               "         (a/b: capture .jsonl or summary .json; exits 1 on\n"
               "          regression, so usable directly as a CI gate)\n"
               "       eco_report profile <capture>\n"
               "         (capture: a --profile=<base> export base or its\n"
               "          .profile.jsonl; renders the wall-clock phase\n"
               "          table)\n"
               "An argument the command does not take, or a --window,\n"
               "--interval or --tolerance value that is not a positive\n"
               "number, exits 2 before any file is read.\n");
  return 2;
}

/// The value of `arg` when it is `prefix` (ending in '=') plus a value.
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view prefix) {
  if (arg.substr(0, prefix.size()) != prefix) return std::nullopt;
  return arg.substr(prefix.size());
}

/// Rejects an argument the command does not take: a misspelt gate flag
/// must not silently turn the gate off.
int UnknownArgument(const std::string& command, std::string_view arg) {
  std::fprintf(stderr, "eco_report %s: unknown argument '%.*s'\n",
               command.c_str(), static_cast<int>(arg.size()), arg.data());
  return Usage();
}

// Every flag is checked before any file is opened: an unknown argument
// or a value that is not a positive number exits 2 with a message.
int Main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const int positional = command == "diff" || command == "regress" ? 4 : 3;
  if (argc < positional) return Usage();
  if (command == "audit" || command == "timeline" || command == "profile" ||
      command == "diff") {
    if (argc > positional) return UnknownArgument(command, argv[positional]);
    if (command == "audit") return RunAudit(argv[2]);
    if (command == "timeline") return RunTimeline(argv[2]);
    if (command == "profile") return RunProfile(argv[2]);
    return RunDiff(argv[2], argv[3]);
  }
  if (command == "score") {
    std::string summary_out;
    SimDuration window_us = 0;
    for (int i = positional; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (auto v = FlagValue(arg, "--summary=")) {
        summary_out = *v;
      } else if (auto v = FlagValue(arg, "--window=")) {
        window_us = bench::ParseSecondsOrExit("--window", *v);
      } else {
        return UnknownArgument(command, arg);
      }
    }
    if (window_us > 0) return RunScoreWindows(argv[2], window_us, summary_out);
    return RunScore(argv[2], summary_out);
  }
  if (command == "tail") {
    TailOptions opt;
    for (int i = positional; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--once") {
        opt.once = true;
      } else if (auto v = FlagValue(arg, "--interval=")) {
        opt.interval_s = bench::ParsePositiveOrExit("--interval", *v);
      } else if (auto v = FlagValue(arg, "--window=")) {
        opt.window_us = bench::ParseSecondsOrExit("--window", *v);
      } else if (auto v = FlagValue(arg, "--reconcile=")) {
        opt.reconcile = *v;
      } else if (auto v = FlagValue(arg, "--tolerance=")) {
        opt.tolerance = bench::ParsePositiveOrExit("--tolerance", *v);
      } else {
        return UnknownArgument(command, arg);
      }
    }
    return RunTail(argv[2], opt);
  }
  if (command == "regress") {
    double tolerance = 1e-6;
    for (int i = positional; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (auto v = FlagValue(arg, "--tolerance=")) {
        tolerance = bench::ParsePositiveOrExit("--tolerance", *v);
      } else {
        return UnknownArgument(command, arg);
      }
    }
    return RunRegress(argv[2], argv[3], tolerance);
  }
  return Usage();
}

}  // namespace
}  // namespace ecostore::telemetry

int main(int argc, char** argv) {
  return ecostore::telemetry::Main(argc, argv);
}
