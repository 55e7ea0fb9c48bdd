#include "telemetry/analysis/rolling_summary.h"

#include <algorithm>
#include <map>

#include "telemetry/flat_json.h"

namespace ecostore::telemetry::analysis {

RollingSummary::RollingSummary(const ExportMeta& meta, const Options& options)
    : options_(options), ledger_(meta) {
  if (options_.window_us <= 0) options_.window_us = kMinute;
  if (options_.retention == 0) options_.retention = 1;
  win_start_ = 0;
  win_end_ = options_.window_us;
  WriteMetaLine();
}

void RollingSummary::OnEvent(const Event& event) {
  // Windows the event time has passed are complete: the stream arrives in
  // time order, so everything below event.time has been delivered.
  while (!finished_ && event.time >= win_end_) {
    CloseWindow(win_end_, /*terminal=*/false);
  }
  ledger_.Consume(event);
}

void RollingSummary::OnFrontier(SimTime frontier) {
  while (!finished_ && win_end_ <= frontier) {
    CloseWindow(win_end_, /*terminal=*/false);
  }
}

void RollingSummary::OnFinish(const StreamFinal& final) {
  if (finished_) return;
  final_ = final;
  // Close any still-open complete windows below the horizon BEFORE
  // folding the horizon group: terminal off-window credits recorded at
  // the horizon belong to the remainder window, not an interior one.
  while (win_end_ <= final.at) CloseWindow(win_end_, /*terminal=*/false);
  ledger_.Finish(final);
  CloseWindow(std::max(final.at, win_start_), /*terminal=*/true);
  finished_ = true;
  WriteFinalLine();
}

void RollingSummary::CloseWindow(SimTime end, bool terminal) {
  ledger_.AdvanceTo(end);
  const EnergyLedger& cur = ledger_.exact();

  RollingWindow w;
  w.index = windows_closed_;
  w.start = win_start_;
  w.end = end;
  w.terminal = terminal;
  w.credit_j = cur.off_credit_j - prev_.credit_j;
  w.debit_j = cur.off_debit_j - prev_.debit_j;
  w.actual_j = cur.off_actual_j - prev_.actual_j;
  w.dwell_us = cur.off_dwell_us - prev_.dwell_us;
  w.off_windows =
      static_cast<int64_t>(cur.off_windows.size()) -
      static_cast<int64_t>(prev_off_count_);
  w.mispredicts = cur.mispredicts - prev_.mispredicts;
  w.mispredict_loss_j = cur.mispredict_loss_j - prev_.mispredict_loss_j;
  w.decisions = cur.decisions - prev_.decisions;
  w.migrations = cur.migrations - prev_.migrations;
  w.preloads = cur.preloads - prev_.preloads;
  w.write_delays = cur.write_delays - prev_.write_delays;
  w.write_delay_admits = cur.write_delay_admits - prev_.write_delay_admits;
  w.write_delay_flushes = cur.write_delay_flushes - prev_.write_delay_flushes;
  w.write_delay_flush_bytes =
      cur.write_delay_flush_bytes - prev_.write_delay_flush_bytes;
  w.cum_credit_j = cur.off_credit_j;
  w.cum_debit_j = cur.off_debit_j;
  w.cum_off_windows = static_cast<int64_t>(cur.off_windows.size());
  w.cum_mispredicts = cur.mispredicts;

  // Per-enclosure roll-up + mispredict flags over the off windows that
  // closed since the previous rolling window (attribution by close time).
  std::map<EnclosureId, RollingWindow::EncRoll> rolls;
  for (size_t i = prev_off_count_; i < cur.off_windows.size(); ++i) {
    const OffWindow& ow = cur.off_windows[i];
    RollingWindow::EncRoll& r = rolls[ow.enclosure];
    r.enclosure = ow.enclosure;
    r.windows++;
    r.credit_j += ow.credit_j;
    r.debit_j += ow.debit_j;
    r.dwell_us += ow.end - ow.start;
    if (ow.mispredict) {
      r.mispredicts++;
      w.flags.push_back(RollingWindow::Flag{ow.enclosure, ow.start, ow.end,
                                            ow.plan,
                                            ow.debit_j - ow.credit_j, ow.wake,
                                            ow.wake_item});
    }
  }
  w.enclosures.reserve(rolls.size());
  for (const auto& [id, roll] : rolls) w.enclosures.push_back(roll);

  // Latency delta: cumulative book minus the previous snapshot. The book
  // only advances between pumps, so the first window closed per pump
  // carries the delta and later ones in the same pump see zero — exactly
  // the window's own I/Os when the pump cadence equals the window length.
  if (options_.book != nullptr) {
    LatencyBook delta = *options_.book;
    delta.SubtractPrefix(prev_book_);
    prev_book_ = *options_.book;
    for (uint8_t p = 0; p < kNumPatternSlots; ++p) {
      for (uint8_t o = 0; o < kNumOutcomes; ++o) {
        const LatencyHistogram& h = delta.cell(p, o);
        if (h.count() == 0) continue;
        w.latency.push_back(RollingWindow::LatCell{p, o, h});
      }
    }
  }

  prev_.credit_j = cur.off_credit_j;
  prev_.debit_j = cur.off_debit_j;
  prev_.actual_j = cur.off_actual_j;
  prev_.dwell_us = cur.off_dwell_us;
  prev_.mispredicts = cur.mispredicts;
  prev_.mispredict_loss_j = cur.mispredict_loss_j;
  prev_.decisions = cur.decisions;
  prev_.migrations = cur.migrations;
  prev_.preloads = cur.preloads;
  prev_.write_delays = cur.write_delays;
  prev_.write_delay_admits = cur.write_delay_admits;
  prev_.write_delay_flushes = cur.write_delay_flushes;
  prev_.write_delay_flush_bytes = cur.write_delay_flush_bytes;
  prev_off_count_ = cur.off_windows.size();

  WriteWindowLine(w);
  if (options_.progress != nullptr) {
    PrintWindowRow(options_.progress, options_.progress_prefix, w);
    std::fflush(options_.progress);
  }

  windows_closed_++;
  windows_.push_back(std::move(w));
  while (windows_.size() > options_.retention) windows_.pop_front();
  win_start_ = end;
  win_end_ = end + options_.window_us;
}

void RollingSummary::WriteMetaLine() {
  if (options_.jsonl == nullptr) return;
  const ExportMeta& meta = ledger_.meta();
  std::string line = "{\"type\":\"rolling_meta\"";
  AppendKV(&line, "schema", 1);
  line += ",\"workload\":\"" + meta.workload + "\"";
  line += ",\"policy\":\"" + meta.policy + "\"";
  AppendKV(&line, "num_enclosures", meta.num_enclosures);
  AppendKV(&line, "duration_us", meta.duration);
  AppendKV(&line, "window_us", options_.window_us);
  AppendKV(&line, "has_power_model", meta.has_power_model ? 1 : 0);
  line += "}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void RollingSummary::WriteWindowLine(const RollingWindow& w) {
  if (options_.jsonl == nullptr) return;
  // Scalars first: the readers (FlatJson) are linear first-match
  // scanners, so top-level keys must precede the nested arrays.
  std::string line = "{\"type\":\"window\"";
  AppendKV(&line, "index", w.index);
  AppendKV(&line, "start_us", w.start);
  AppendKV(&line, "end_us", w.end);
  AppendKV(&line, "terminal", w.terminal ? 1 : 0);
  AppendKVF(&line, "credit_j", w.credit_j);
  AppendKVF(&line, "debit_j", w.debit_j);
  AppendKVF(&line, "net_j", w.credit_j - w.debit_j);
  AppendKVF(&line, "actual_j", w.actual_j);
  AppendKV(&line, "dwell_us", w.dwell_us);
  AppendKV(&line, "off_windows", w.off_windows);
  AppendKV(&line, "mispredicts", w.mispredicts);
  AppendKVF(&line, "mispredict_loss_j", w.mispredict_loss_j);
  AppendKV(&line, "decisions", w.decisions);
  AppendKV(&line, "migrations", w.migrations);
  AppendKV(&line, "preloads", w.preloads);
  AppendKV(&line, "write_delays", w.write_delays);
  AppendKV(&line, "write_delay_admits", w.write_delay_admits);
  AppendKV(&line, "write_delay_flushes", w.write_delay_flushes);
  AppendKV(&line, "write_delay_flush_bytes", w.write_delay_flush_bytes);
  AppendKVF(&line, "cum_credit_j", w.cum_credit_j);
  AppendKVF(&line, "cum_debit_j", w.cum_debit_j);
  AppendKVF(&line, "cum_net_j", w.cum_credit_j - w.cum_debit_j);
  AppendKV(&line, "cum_off_windows", w.cum_off_windows);
  AppendKV(&line, "cum_mispredicts", w.cum_mispredicts);
  line += ",\"enclosures\":[";
  for (size_t i = 0; i < w.enclosures.size(); ++i) {
    const RollingWindow::EncRoll& r = w.enclosures[i];
    std::string item = i == 0 ? "{\"e\":" : ",{\"e\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d", r.enclosure);
    item += buf;
    AppendKV(&item, "w", r.windows);
    AppendKV(&item, "mp", r.mispredicts);
    AppendKVF(&item, "cr", r.credit_j);
    AppendKVF(&item, "db", r.debit_j);
    AppendKV(&item, "dw", r.dwell_us);
    item += "}";
    line += item;
  }
  line += "]";
  line += ",\"flags\":[";
  for (size_t i = 0; i < w.flags.size(); ++i) {
    const RollingWindow::Flag& f = w.flags[i];
    std::string item = i == 0 ? "{\"e\":" : ",{\"e\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d", f.enclosure);
    item += buf;
    AppendKV(&item, "s", f.start);
    AppendKV(&item, "t", f.end);
    AppendKV(&item, "p", f.plan);
    AppendKVF(&item, "loss", f.loss_j);
    item += ",\"wk\":\"";
    item += WakeCauseName(f.wake);
    item += "\"";
    AppendKV(&item, "it", f.wake_item);
    item += "}";
    line += item;
  }
  line += "]";
  line += ",\"latency\":[";
  for (size_t i = 0; i < w.latency.size(); ++i) {
    const RollingWindow::LatCell& c = w.latency[i];
    std::string item = i == 0 ? "{\"pattern\":\"" : ",{\"pattern\":\"";
    item += PatternSlotName(c.pattern);
    item += "\",\"outcome\":\"";
    item += IoOutcomeName(c.outcome);
    item += "\"";
    AppendKV(&item, "count", c.hist.count());
    AppendKV(&item, "sum_us", c.hist.sum());
    AppendKV(&item, "max_us", c.hist.max());
    item += ",\"buckets\":\"" + c.hist.EncodeBuckets() + "\"";
    item += "}";
    line += item;
  }
  line += "]}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void RollingSummary::WriteFinalLine() {
  if (options_.jsonl == nullptr) return;
  const EnergyLedger ledger = ledger_.Snapshot();
  std::string line = "{\"type\":\"rolling_final\"";
  AppendKV(&line, "at_us", final_.at);
  AppendKV(&line, "windows", windows_closed_);
  AppendKVF(&line, "enclosure_energy_j", ledger_.meta().enclosure_energy_j);
  AppendKVF(&line, "controller_energy_j", ledger_.meta().controller_energy_j);
  AppendKVF(&line, "total_energy_j", ledger_.meta().enclosure_energy_j +
                                         ledger_.meta().controller_energy_j);
  AppendKVF(&line, "off_credit_j", ledger.off_credit_j);
  AppendKVF(&line, "off_debit_j", ledger.off_debit_j);
  AppendKVF(&line, "net_saving_j", ledger.off_credit_j - ledger.off_debit_j);
  AppendKVF(&line, "off_actual_j", ledger.off_actual_j);
  AppendKV(&line, "off_dwell_us", ledger.off_dwell_us);
  AppendKV(&line, "off_windows",
           static_cast<int64_t>(ledger.off_windows.size()));
  AppendKV(&line, "mispredicts", ledger.mispredicts);
  AppendKVF(&line, "mispredict_loss_j", ledger.mispredict_loss_j);
  AppendKVF(&line, "advisory_credit_j", ledger.advisory_credit_j);
  AppendKVF(&line, "advisory_debit_j", ledger.advisory_debit_j);
  AppendKV(&line, "plans", ledger.plans);
  AppendKV(&line, "decisions", ledger.decisions);
  AppendKV(&line, "migrations", ledger.migrations);
  AppendKV(&line, "preloads", ledger.preloads);
  AppendKV(&line, "write_delays", ledger.write_delays);
  AppendKV(&line, "has_finals", ledger.has_finals ? 1 : 0);
  AppendKVF(&line, "reconcile_rel_err", ledger.reconcile_rel_err);
  line += "}\n";
  std::fputs(line.c_str(), options_.jsonl);
  std::fflush(options_.jsonl);
}

void PrintWindowRow(std::FILE* out, const char* prefix,
                    const RollingWindow& w) {
  std::fprintf(out,
               "%s w%-4lld [%7.0fs,%7.0fs)%s net %+10.1f J  credit %10.1f  "
               "debit %10.1f  off %3lld  mispredict %2lld | cum net "
               "%+10.1f J mispredict %lld\n",
               prefix, static_cast<long long>(w.index), ToSeconds(w.start),
               ToSeconds(w.end), w.terminal ? " end" : "    ",
               w.credit_j - w.debit_j, w.credit_j, w.debit_j,
               static_cast<long long>(w.off_windows),
               static_cast<long long>(w.mispredicts),
               w.cum_credit_j - w.cum_debit_j,
               static_cast<long long>(w.cum_mispredicts));
}

}  // namespace ecostore::telemetry::analysis
