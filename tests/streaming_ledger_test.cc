// Tests for the live observability pipeline: randomized differential
// equivalence of the IncrementalEnergyLedger, and of BuildLedger (its
// fold), against the frozen batch ledger in bench/legacy_ledger.h (the
// oracle) at every window boundary of the replay engine,
// RollingSummary window/cumulative consistency, and the
// in-flight capture reader (ReadJsonlChunk + CaptureTailParser) on
// byte-truncated files.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/legacy_ledger.h"
#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/experiment.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/analysis/incremental_ledger.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "telemetry/stream_consumer.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry::analysis {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFileBytes(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

// --- bitwise ledger equality ----------------------------------------------

// The acceptance bar is rel err 0: every double compared with EXPECT_EQ
// (bitwise for all values the ledger can produce).
void ExpectSameLedger(const EnergyLedger& live,
                      const legacy::EnergyLedger& batch,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(live.off_windows.size(), batch.off_windows.size());
  for (size_t i = 0; i < live.off_windows.size(); ++i) {
    SCOPED_TRACE("off_window " + std::to_string(i));
    const OffWindow& a = live.off_windows[i];
    const OffWindow& b = batch.off_windows[i];
    EXPECT_EQ(a.enclosure, b.enclosure);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.actual_j, b.actual_j);
    EXPECT_EQ(a.credit_j, b.credit_j);
    EXPECT_EQ(a.debit_j, b.debit_j);
    EXPECT_EQ(a.wake, b.wake);
    EXPECT_EQ(a.wake_item, b.wake_item);
    EXPECT_EQ(a.mispredict, b.mispredict);
    EXPECT_EQ(a.has_culprit, b.has_culprit);
    if (a.has_culprit && b.has_culprit) {
      EXPECT_EQ(a.culprit.item, b.culprit.item);
      EXPECT_EQ(a.culprit.pattern, b.culprit.pattern);
      EXPECT_EQ(a.culprit.plan, b.culprit.plan);
      EXPECT_EQ(a.culprit.total_ios, b.culprit.total_ios);
    }
  }
  ASSERT_EQ(live.advisory.size(), batch.advisory.size());
  for (size_t i = 0; i < live.advisory.size(); ++i) {
    SCOPED_TRACE("advisory " + std::to_string(i));
    const AdvisoryEntry& a = live.advisory[i];
    const AdvisoryEntry& b = batch.advisory[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.item, b.item);
    EXPECT_EQ(a.enclosure, b.enclosure);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.credit_j, b.credit_j);
    EXPECT_EQ(a.debit_j, b.debit_j);
  }
  EXPECT_EQ(live.off_credit_j, batch.off_credit_j);
  EXPECT_EQ(live.off_debit_j, batch.off_debit_j);
  EXPECT_EQ(live.off_actual_j, batch.off_actual_j);
  EXPECT_EQ(live.off_dwell_us, batch.off_dwell_us);
  EXPECT_EQ(live.mispredicts, batch.mispredicts);
  EXPECT_EQ(live.mispredict_loss_j, batch.mispredict_loss_j);
  EXPECT_EQ(live.advisory_credit_j, batch.advisory_credit_j);
  EXPECT_EQ(live.advisory_debit_j, batch.advisory_debit_j);
  EXPECT_EQ(live.has_finals, batch.has_finals);
  EXPECT_EQ(live.ledger_enclosure_j, batch.ledger_enclosure_j);
  EXPECT_EQ(live.ledger_controller_j, batch.ledger_controller_j);
  EXPECT_EQ(live.reconcile_rel_err, batch.reconcile_rel_err);
  EXPECT_EQ(live.plans, batch.plans);
  EXPECT_EQ(live.decisions, batch.decisions);
  EXPECT_EQ(live.migrations, batch.migrations);
  EXPECT_EQ(live.preloads, batch.preloads);
  EXPECT_EQ(live.write_delays, batch.write_delays);
  EXPECT_EQ(live.write_delay_admits, batch.write_delay_admits);
  EXPECT_EQ(live.write_delay_flushes, batch.write_delay_flushes);
  EXPECT_EQ(live.write_delay_flush_bytes, batch.write_delay_flush_bytes);
}

// --- instrumented runs ----------------------------------------------------

struct CapturedRun {
  ExportMeta meta;
  std::vector<Event> events;
  replay::ExperimentMetrics metrics;
};

CapturedRun RunInstrumentedSerial(uint64_t seed, bool eco,
                                  SimDuration duration) {
  CapturedRun out;
  workload::FileServerConfig wl;
  wl.duration = duration;
  wl.seed = seed;
  auto workload = workload::FileServerWorkload::Create(wl);
  EXPECT_TRUE(workload.ok());
  std::unique_ptr<policies::StoragePolicy> policy;
  if (eco) {
    policy = std::make_unique<core::EcoStoragePolicy>(
        core::PowerManagementConfig{});
  } else {
    policy = std::make_unique<policies::NoPowerSavingPolicy>();
  }
  Recorder::Options options;
  options.thread_buffer_capacity = 1u << 20;
  options.mask = kClassAll;
  Recorder recorder(options);
  LatencyBook book;
  replay::ExperimentConfig config;
  config.telemetry = &recorder;
  config.latency_book = &book;
  replay::Experiment experiment(workload.value().get(), policy.get(),
                                config);
  auto metrics = experiment.Run();
  EXPECT_TRUE(metrics.ok());
  EXPECT_EQ(recorder.dropped(), 0u);
  out.metrics = metrics.value();
  out.meta = bench::BuildCaptureMeta(metrics.value(), *experiment.system(),
                                     &book);
  out.events = recorder.Drain();
  return out;
}

// Replays the capture into an IncrementalEnergyLedger, pausing at every
// multiple of `window` to compare Snapshot() — and BuildLedger over the
// same exclusive prefix — against the frozen batch oracle; then finishes
// and compares the full run. The boundary comparisons pass `meta` to all
// sides, so every field — including reconciliation once the finals
// arrive — must match bitwise.
void CheckIncrementalMatchesBatch(const CapturedRun& run,
                                  SimDuration window) {
  IncrementalEnergyLedger inc(run.meta);
  size_t i = 0;
  int64_t boundaries = 0;
  for (SimTime b = window; b <= run.meta.duration; b += window) {
    while (i < run.events.size() && run.events[i].time < b) {
      inc.Consume(run.events[i++]);
    }
    inc.AdvanceTo(b);
    std::vector<Event> prefix(run.events.begin(), run.events.begin() + i);
    const std::string where = "window=" + std::to_string(window) +
                              " boundary=" + std::to_string(b);
    const legacy::EnergyLedger oracle = legacy::BuildLedger(run.meta, prefix);
    ExpectSameLedger(inc.Snapshot(), oracle, "incremental " + where);
    ExpectSameLedger(BuildLedger(run.meta, prefix), oracle, "fold " + where);
    boundaries++;
  }
  EXPECT_GT(boundaries, 0);
  while (i < run.events.size()) inc.Consume(run.events[i++]);
  StreamFinal fin;
  fin.at = run.meta.duration;
  fin.enclosure_energy_j = run.metrics.enclosure_energy;
  fin.controller_energy_j = run.metrics.controller_energy;
  fin.has_energy = true;
  inc.Finish(fin);
  EXPECT_TRUE(inc.finished());
  const legacy::EnergyLedger oracle = legacy::BuildLedger(run.meta, run.events);
  ExpectSameLedger(inc.Snapshot(), oracle,
                   "incremental end-of-run window=" + std::to_string(window));
  ExpectSameLedger(BuildLedger(run.meta, run.events), oracle,
                   "fold end-of-run window=" + std::to_string(window));
}

TEST(IncrementalLedgerTest, MatchesBatchAtEveryBoundarySerialRandomized) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Seeds change the I/O interleaving (and hence off-window placement);
  // window lengths are deliberately not divisors of the duration and not
  // aligned with the policy's 520 s monitoring period.
  for (uint64_t seed : {42ull, 20260809ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    CapturedRun run = RunInstrumentedSerial(seed, /*eco=*/true,
                                            20 * kMinute);
    const legacy::EnergyLedger oracle =
        legacy::BuildLedger(run.meta, run.events);
    EXPECT_GT(oracle.off_windows.size(), 0u);
    // The oracle's set-level write-delay fallback only runs on streams
    // without per-item admits; engine captures always carry them.
    EXPECT_GT(oracle.write_delay_admits, 0);
    EXPECT_TRUE(oracle.per_item_write_delay);
    for (SimDuration window :
         {47 * kSecond, 3 * kMinute + 1, 311 * kSecond}) {
      CheckIncrementalMatchesBatch(run, window);
    }
  }
}

TEST(IncrementalLedgerTest, MatchesBatchWithoutPowerSavingPolicy) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Degenerate coverage: no off windows, stream tallies only.
  CapturedRun run = RunInstrumentedSerial(7ull, /*eco=*/false,
                                          10 * kMinute);
  CheckIncrementalMatchesBatch(run, kMinute);
}

// A stream whose write-delay set updates admit no item. Engine captures
// always carry per-item admits; this is the case the oracle answers with
// its set-level fallback. The ledger makes no per-item kWriteDelay entry
// for it, and each plan's occupancy debit is the oracle's.
TEST(IncrementalLedgerTest, WriteDelaySetWithoutAdmitsOnlyDebitsOccupancy) {
  ExportMeta meta;
  meta.num_enclosures = 2;
  meta.duration = 1000 * kSecond;
  meta.has_power_model = true;
  meta.idle_power_w = 100.0;
  meta.spinup_power_w = 200.0;
  meta.spinup_time_us = 12 * kSecond;
  meta.controller_power_w = 50.0;
  meta.cache_total_bytes = int64_t{1} << 30;
  meta.write_delay_area_bytes = int64_t{1} << 28;
  std::vector<Event> events;
  for (int32_t plan : {1, 2}) {
    const SimTime t = plan == 1 ? 100 * kSecond : 600 * kSecond;
    DecisionPayload d;
    d.item = 7;
    d.plan = plan;
    events.push_back(MakeDecisionEvent(t, d));
    events.push_back(MakeCacheEvent(t, EventKind::kWriteDelaySet,
                                    kInvalidDataItem, kInvalidEnclosure, 3,
                                    0, plan));
  }

  const EnergyLedger ledger = BuildLedger(meta, events);
  const legacy::EnergyLedger oracle = legacy::BuildLedger(meta, events);
  EXPECT_EQ(ledger.write_delays, 2);
  EXPECT_EQ(ledger.write_delay_admits, 0);
  std::vector<AdvisoryEntry> occupancy;
  for (const AdvisoryEntry& a : ledger.advisory) {
    EXPECT_NE(a.kind, AdvisoryEntry::Kind::kWriteDelay);
    if (a.kind == AdvisoryEntry::Kind::kWriteDelayOccupancy) {
      occupancy.push_back(a);
    }
  }
  std::vector<AdvisoryEntry> oracle_occupancy;
  int64_t oracle_fallback = 0;
  for (const AdvisoryEntry& a : oracle.advisory) {
    if (a.kind == AdvisoryEntry::Kind::kWriteDelay) oracle_fallback++;
    if (a.kind == AdvisoryEntry::Kind::kWriteDelayOccupancy) {
      oracle_occupancy.push_back(a);
    }
  }
  EXPECT_EQ(oracle_fallback, 2);  // the oracle does take its fallback
  ASSERT_EQ(occupancy.size(), 2u);
  ASSERT_EQ(oracle_occupancy.size(), occupancy.size());
  for (size_t i = 0; i < occupancy.size(); ++i) {
    EXPECT_EQ(occupancy[i].plan, oracle_occupancy[i].plan);
    EXPECT_EQ(occupancy[i].time, oracle_occupancy[i].time);
    EXPECT_EQ(occupancy[i].debit_j, oracle_occupancy[i].debit_j);
  }
  // Plan 1 holds the quarter-cache area for its 500 s.
  EXPECT_EQ(occupancy[0].debit_j, 50.0 * 0.25 * 500.0);
  EXPECT_EQ(ledger.advisory_credit_j, oracle.advisory_credit_j);
  EXPECT_EQ(ledger.advisory_debit_j, oracle.advisory_debit_j);
}

// --- rolling summary ------------------------------------------------------

TEST(RollingSummaryTest, WindowsTileTheRunAndTelescopeToTheTotal) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumentedSerial(42ull, /*eco=*/true,
                                          20 * kMinute);
  const SimDuration window = 130 * kSecond;  // not a divisor of 1200 s
  RollingSummary::Options ropt;
  ropt.window_us = window;
  ropt.retention = static_cast<size_t>(-1);
  RollingSummary rolling(run.meta, ropt);
  for (const Event& e : run.events) rolling.OnEvent(e);
  StreamFinal fin;
  fin.at = run.meta.duration;
  fin.enclosure_energy_j = run.metrics.enclosure_energy;
  fin.controller_energy_j = run.metrics.controller_energy;
  fin.has_energy = true;
  rolling.OnFinish(fin);

  const auto& windows = rolling.windows();
  ASSERT_GT(windows.size(), 1u);
  EXPECT_EQ(rolling.windows_closed(),
            static_cast<int64_t>(windows.size()));
  // Windows tile [0, duration): contiguous, last one terminal.
  SimTime expect_start = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(windows[i].index, static_cast<int64_t>(i));
    EXPECT_EQ(windows[i].start, expect_start);
    EXPECT_GE(windows[i].end, windows[i].start);
    EXPECT_EQ(windows[i].terminal, i + 1 == windows.size());
    expect_start = windows[i].end;
  }
  EXPECT_EQ(windows.back().end, run.meta.duration);

  // Window deltas telescope to the full-run ledger.
  EnergyLedger full = BuildLedger(run.meta, run.events);
  ASSERT_GT(full.off_windows.size(), 0u);
  double credit = 0.0, debit = 0.0, loss = 0.0;
  int64_t offs = 0, mispredicts = 0, decisions = 0, migrations = 0;
  int64_t lat_count = 0;
  for (const RollingWindow& w : windows) {
    credit += w.credit_j;
    debit += w.debit_j;
    loss += w.mispredict_loss_j;
    offs += w.off_windows;
    mispredicts += w.mispredicts;
    decisions += w.decisions;
    migrations += w.migrations;
    EXPECT_EQ(static_cast<int64_t>(w.flags.size()), w.mispredicts);
    int64_t enc_windows = 0;
    for (const RollingWindow::EncRoll& e : w.enclosures) {
      enc_windows += e.windows;
    }
    EXPECT_EQ(enc_windows, w.off_windows);
    for (const RollingWindow::LatCell& c : w.latency) {
      lat_count += c.hist.count();
    }
  }
  EXPECT_EQ(offs, static_cast<int64_t>(full.off_windows.size()));
  EXPECT_EQ(mispredicts, full.mispredicts);
  EXPECT_EQ(decisions, full.decisions);
  EXPECT_EQ(migrations, full.migrations);
  // Integer counters telescope exactly; double deltas reassociate, so
  // they get a tight relative bound instead of bitwise equality.
  EXPECT_NEAR(credit, full.off_credit_j, 1e-6 * std::abs(full.off_credit_j));
  EXPECT_NEAR(debit, full.off_debit_j, 1e-6 * std::abs(full.off_debit_j));
  EXPECT_NEAR(loss, full.mispredict_loss_j,
              1e-6 * std::abs(full.mispredict_loss_j) + 1e-9);
  // The cumulative fields of the last window ARE the ledger's (no sum).
  EXPECT_EQ(windows.back().cum_credit_j, full.off_credit_j);
  EXPECT_EQ(windows.back().cum_debit_j, full.off_debit_j);
  EXPECT_EQ(windows.back().cum_off_windows,
            static_cast<int64_t>(full.off_windows.size()));
  EXPECT_EQ(windows.back().cum_mispredicts, full.mispredicts);
  // The final ledger behind the summary is the batch ledger.
  ExpectSameLedger(rolling.FinalLedger(),
                   legacy::BuildLedger(run.meta, run.events),
                   "rolling final ledger");
  // The run's latency book flowed through the per-window deltas intact.
  int64_t book_count = 0;
  for (const LatencySlot& slot : run.meta.latency) {
    book_count += slot.hist.count();
  }
  (void)lat_count;  // LatCells only populate with a live book attached
  EXPECT_GT(book_count, 0);
}

TEST(RollingSummaryTest, RetentionBoundsMemoryButNotTheStream) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumentedSerial(42ull, /*eco=*/true,
                                          20 * kMinute);
  RollingSummary::Options ropt;
  ropt.window_us = kMinute;
  ropt.retention = 3;
  RollingSummary rolling(run.meta, ropt);
  for (const Event& e : run.events) rolling.OnEvent(e);
  StreamFinal fin;
  fin.at = run.meta.duration;
  fin.enclosure_energy_j = run.metrics.enclosure_energy;
  fin.controller_energy_j = run.metrics.controller_energy;
  fin.has_energy = true;
  rolling.OnFinish(fin);
  EXPECT_EQ(rolling.windows().size(), 3u);  // only the newest retained
  // 20 interior windows plus the (here zero-length) terminal remainder.
  EXPECT_EQ(rolling.windows_closed(), 21);
  EXPECT_TRUE(rolling.windows().back().terminal);
}

// --- in-flight capture reader ---------------------------------------------

TEST(ReadJsonlChunkTest, PartialTailIsReportedNotReturned) {
  const std::string path = TempPath("chunk_partial.jsonl");
  WriteFileBytes(path, "aaa\nbb");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(chunk.lines.size(), 1u);
  EXPECT_EQ(chunk.lines[0], "aaa");
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 4);

  // The writer finishes the line and appends another: resuming from
  // next_offset yields exactly the new complete lines.
  WriteFileBytes(path, "aaa\nbbb\nccc\n");
  st = ReadJsonlChunk(path, chunk.next_offset, &chunk);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(chunk.lines.size(), 2u);
  EXPECT_EQ(chunk.lines[0], "bbb");
  EXPECT_EQ(chunk.lines[1], "ccc");
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 12);
}

TEST(ReadJsonlChunkTest, StripsCarriageReturnsAndHandlesEmptyReads) {
  const std::string path = TempPath("chunk_crlf.jsonl");
  WriteFileBytes(path, "x\r\ny\r\n");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(chunk.lines.size(), 2u);
  EXPECT_EQ(chunk.lines[0], "x");
  EXPECT_EQ(chunk.lines[1], "y");
  // Reading again at EOF: no lines, no error, offset unchanged.
  st = ReadJsonlChunk(path, chunk.next_offset, &chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(chunk.lines.size(), 0u);
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 6);
}

// A real capture byte-truncated mid-line must parse cleanly up to the
// cut ("resume at offset" semantics), then complete once the rest of the
// file lands — with events identical to a one-shot strict parse.
TEST(CaptureTailParserTest, ResumesAcrossByteTruncation) {
  if (!Recorder::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  CapturedRun run = RunInstrumentedSerial(42ull, /*eco=*/true, 5 * kMinute);
  const std::string base = TempPath("tail_capture");
  ASSERT_TRUE(ExportAll(base, run.meta, run.events).ok());
  const std::string path = base + ".jsonl";

  // Reference: the strict reader over the finished file.
  ExportMeta ref_meta;
  std::vector<Event> ref_events;
  ASSERT_TRUE(ParseJsonl(path, &ref_meta, &ref_events).ok());
  ASSERT_GT(ref_events.size(), 0u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string full(static_cast<size_t>(full_size), '\0');
  ASSERT_EQ(std::fread(full.data(), 1, full.size(), f), full.size());
  std::fclose(f);

  // Truncate at ~60% of the bytes — virtually guaranteed mid-line.
  const std::string trunc_path = TempPath("tail_capture_trunc.jsonl");
  const size_t cut = full.size() * 3 / 5;
  WriteFileBytes(trunc_path, full.substr(0, cut));

  CaptureTailParser parser;
  JsonlChunk chunk;
  int64_t offset = 0;
  ASSERT_TRUE(ReadJsonlChunk(trunc_path, offset, &chunk).ok());
  for (const std::string& line : chunk.lines) {
    Status st = parser.Consume(line);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  offset = chunk.next_offset;
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_TRUE(parser.have_meta());
  EXPECT_FALSE(parser.complete());  // in flight, not an error
  EXPECT_LT(parser.consumed_events(), parser.declared_events());

  // The writer catches up; resume exactly where we left off.
  WriteFileBytes(trunc_path, full);
  ASSERT_TRUE(ReadJsonlChunk(trunc_path, offset, &chunk).ok());
  for (const std::string& line : chunk.lines) {
    Status st = parser.Consume(line);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_FALSE(chunk.partial_tail);
  EXPECT_TRUE(parser.complete());
  ASSERT_EQ(parser.events().size(), ref_events.size());
  // Events are a union with unwritten tail bytes per kind, so compare
  // the header fields (raw memcmp would read uninitialized padding).
  for (size_t i = 0; i < ref_events.size(); ++i) {
    const Event& a = parser.events()[i];
    const Event& b = ref_events[i];
    ASSERT_TRUE(a.time == b.time && a.kind == b.kind)
        << "event " << i;
  }
  EXPECT_EQ(parser.meta().duration, ref_meta.duration);
  EXPECT_EQ(parser.meta().enclosure_energy_j, ref_meta.enclosure_energy_j);
}

TEST(CaptureTailParserTest, TruncationInsideTheMetaLineYieldsNoLines) {
  const std::string path = TempPath("meta_trunc.jsonl");
  // The first (meta) line cut after 20 bytes: nothing complete yet.
  WriteFileBytes(path, "{\"type\": \"meta\", \"wo");
  JsonlChunk chunk;
  Status st = ReadJsonlChunk(path, 0, &chunk);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(chunk.lines.size(), 0u);
  EXPECT_TRUE(chunk.partial_tail);
  EXPECT_EQ(chunk.next_offset, 0);
  CaptureTailParser parser;
  EXPECT_FALSE(parser.have_meta());
  EXPECT_FALSE(parser.complete());
}

TEST(CaptureTailParserTest, MalformedCompleteLineStillFails) {
  // Hardening must not swallow real corruption: a complete line that is
  // not a JSON object is an error, with a position-free message the
  // strict reader wraps with its line number.
  CaptureTailParser parser;
  Status st = parser.Consume("not json at all");
  EXPECT_FALSE(st.ok());
  st = parser.Consume("{\"no_type\": 1}");
  EXPECT_FALSE(st.ok());
  st = parser.Consume("{\"type\": \"meta\", \"truncated\": tru");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace ecostore::telemetry::analysis
