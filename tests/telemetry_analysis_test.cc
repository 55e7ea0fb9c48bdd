// Tests for the offline telemetry analyzer: log-linear latency histogram
// bucket math and exact mergeability, energy-ledger reconciliation
// against a real instrumented run, the summary JSON round-trip, the
// regression comparator behind `eco_report regress`, and the hardened
// capture parser's line-numbered diagnostics.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "bench/telemetry_capture.h"
#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/analysis/latency_histogram.h"
#include "telemetry/analysis/summary.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry::analysis {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

// --- histogram ------------------------------------------------------------

TEST(LatencyHistogramTest, BucketBoundsAreExactInverses) {
  for (int idx = 0; idx < LatencyHistogram::kNumBuckets; ++idx) {
    int64_t low = LatencyHistogram::BucketLow(idx);
    EXPECT_EQ(LatencyHistogram::BucketIndex(low), idx) << "idx=" << idx;
    if (idx > 0) {
      EXPECT_EQ(LatencyHistogram::BucketIndex(low - 1), idx - 1)
          << "idx=" << idx;
    }
  }
  // The ends of the int64 range land in the first and the last bucket.
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0);
  EXPECT_EQ(LatencyHistogram::BucketIndex(INT64_MAX),
            LatencyHistogram::kNumBuckets - 1);
}

TEST(LatencyHistogramTest, MergeIsCommutativeAndAssociative) {
  std::mt19937_64 rng(42);
  LatencyHistogram a, b, c;
  for (int i = 0; i < 5000; ++i) {
    a.Record(static_cast<int64_t>(rng() % 1000));
    b.Record(static_cast<int64_t>(rng() % 10000000));
    c.Record(static_cast<int64_t>(rng() % 64));
  }
  LatencyHistogram ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);  // merge(a,b) == merge(b,a)

  LatencyHistogram ab_c = ab, a_bc = b;
  ab_c.Merge(c);
  a_bc.Merge(c);
  LatencyHistogram left = a;
  left.Merge(a_bc);
  EXPECT_TRUE(ab_c == left);  // merge(merge(a,b),c) == merge(a,merge(b,c))
  EXPECT_EQ(ab_c.count(), a.count() + b.count() + c.count());
  EXPECT_EQ(ab_c.sum(), a.sum() + b.sum() + c.sum());
}

TEST(LatencyHistogramTest, QuantilesAndEncodeRoundTrip) {
  LatencyHistogram h;
  for (int64_t v = 0; v < 1000; ++v) h.Record(v);
  // p50 must land within one bucket width (1/16 relative) of 500.
  EXPECT_GE(h.Quantile(0.5), 448);
  EXPECT_LE(h.Quantile(0.5), 500);
  EXPECT_EQ(h.Quantile(1.0), 999);
  EXPECT_EQ(h.count(), 1000);

  LatencyHistogram parsed;
  parsed.DecodeBuckets(h.EncodeBuckets(), h.sum(), h.max());
  EXPECT_TRUE(parsed == h);
}

TEST(LatencyBookTest, OutOfRangePatternFallsBackToUnclassified) {
  LatencyBook book;
  book.Record(200, IoOutcome::kMiss, 7);
  EXPECT_EQ(book.cell(kPatternUnclassified,
                      static_cast<uint8_t>(IoOutcome::kMiss)).count(), 1);
}

// --- ledger + summary on a real instrumented run --------------------------

struct CapturedRun {
  ExportMeta meta;
  std::vector<Event> events;
  replay::ExperimentMetrics metrics;
};

// One 20-minute file-server run of the proposed policy with the full
// class mask and a latency book attached — long enough for two
// monitoring periods, so spin-downs, preloads and write-delays all fire.
CapturedRun RunInstrumented() {
  CapturedRun out;
  workload::FileServerConfig wl;
  wl.duration = 20 * kMinute;
  auto workload = workload::FileServerWorkload::Create(wl);
  EXPECT_TRUE(workload.ok());
  core::EcoStoragePolicy policy{core::PowerManagementConfig{}};
  Recorder recorder(kClassAll);
  analysis::LatencyBook book;
  replay::ExperimentConfig config;
  config.telemetry = &recorder;
  config.latency_book = &book;
  replay::Experiment experiment(workload.value().get(), &policy, config);
  auto metrics = experiment.Run();
  EXPECT_TRUE(metrics.ok());
  out.metrics = metrics.value();
  out.meta = bench::BuildCaptureMeta(metrics.value(), *experiment.system(),
                                     &book);
  out.events = recorder.Drain();
  // The book records exactly one latency per logical I/O.
  EXPECT_EQ(book.total_count(), out.metrics.logical_ios);
  return out;
}

TEST(EnergyLedgerTest, ReconcilesWithMeasuredEnergyAndPricesWindows) {
  CapturedRun run = RunInstrumented();
  EnergyLedger ledger = BuildLedger(run.meta, run.events);

  // The kEnergyFinal counters must telescope to the run's measured
  // energy to (well under) 1e-6 relative error — the acceptance bound.
  ASSERT_TRUE(ledger.has_finals);
  EXPECT_LE(ledger.reconcile_rel_err, 1e-6);
  EXPECT_NEAR(ledger.ledger_enclosure_j, run.metrics.enclosure_energy,
              1e-6 * run.metrics.enclosure_energy);
  EXPECT_NEAR(ledger.ledger_controller_j, run.metrics.controller_energy,
              1e-6 * run.metrics.controller_energy);

  // The proposed policy spins enclosures down within 20 minutes.
  ASSERT_GT(ledger.off_windows.size(), 0u);
  const double break_even_s = ToSeconds(run.meta.break_even_us);
  for (const OffWindow& w : ledger.off_windows) {
    EXPECT_GT(w.end, w.start);
    EXPECT_GE(w.plan, 1);  // spin-down needs a published plan
    // credit = idle * dwell - actual; actual is bounded by idle * dwell.
    double dwell_s = ToSeconds(w.end - w.start);
    EXPECT_GE(w.credit_j, -1e-9);
    EXPECT_LE(w.credit_j, run.meta.idle_power_w * dwell_s + 1e-9);
    if (w.wake == WakeCause::kRunEnd) {
      EXPECT_EQ(w.debit_j, 0.0);  // terminal window: no wake-up paid
      EXPECT_FALSE(w.mispredict);
    } else {
      EXPECT_GT(w.debit_j, 0.0);
      EXPECT_EQ(w.mispredict, dwell_s < break_even_s);
    }
  }
  EXPECT_EQ(ledger.plans, run.metrics.placement_determinations);
}

TEST(SummaryTest, WriteParseRoundTripAndRegressGate) {
  CapturedRun run = RunInstrumented();
  Summary summary = BuildSummary(run.meta, run.events);
  EXPECT_GT(summary.latency.size(), 0u);
  EXPECT_NEAR(summary.total_energy_j,
              run.metrics.enclosure_energy + run.metrics.controller_energy,
              1e-9 * summary.total_energy_j);

  std::string path = TempPath("summary.json");
  ASSERT_TRUE(WriteSummaryJson(path, summary).ok());
  Summary parsed;
  ASSERT_TRUE(ParseSummaryFile(path, &parsed).ok());
  // The %.17g rendering round-trips doubles exactly, so the parsed
  // summary compares clean at zero tolerance.
  EXPECT_TRUE(CompareSummaries(summary, parsed, 0.0).empty());
  EXPECT_EQ(parsed.latency.size(), summary.latency.size());
  EXPECT_EQ(parsed.off_windows, summary.off_windows);

  // An injected 1% energy drift must trip the gate at 1e-6 tolerance —
  // the contract `eco_report regress` enforces in CI.
  Summary drifted = parsed;
  drifted.enclosure_energy_j *= 1.01;
  drifted.total_energy_j =
      drifted.enclosure_energy_j + drifted.controller_energy_j;
  std::vector<SummaryDiff> diffs = CompareSummaries(summary, drifted, 1e-6);
  ASSERT_FALSE(diffs.empty());
  bool saw_enclosure = false;
  for (const SummaryDiff& d : diffs) {
    if (d.field == "energy.enclosure_j") saw_enclosure = true;
  }
  EXPECT_TRUE(saw_enclosure);
  // ...and pass again once the tolerance covers the drift.
  EXPECT_TRUE(CompareSummaries(summary, drifted, 0.02).empty());
}

TEST(SummaryTest, CaptureRoundTripPreservesTheSummary) {
  CapturedRun run = RunInstrumented();
  std::string path = TempPath("roundtrip.jsonl");
  ASSERT_TRUE(WriteJsonl(path, run.meta, run.events).ok());
  ExportMeta meta2;
  std::vector<Event> events2;
  ASSERT_TRUE(ParseJsonl(path, &meta2, &events2).ok());
  ASSERT_EQ(events2.size(), run.events.size());
  // Scoring the re-parsed capture gives the same gate summary: this is
  // what lets CI regress a fresh run against a checked-in golden file.
  Summary a = BuildSummary(run.meta, run.events);
  Summary b = BuildSummary(meta2, events2);
  EXPECT_TRUE(CompareSummaries(a, b, 0.0).empty());
}

/// Sets the field `member` of `record` to a value that differs from its
/// default and, for distinct `i`, from every other field's.
template <typename R, typename S>
void SetDistinct(R& record, const FieldMember<S>& member, int i) {
  VisitField(record, member, [&](auto& value) {
    using T = std::remove_reference_t<decltype(value)>;
    if constexpr (std::is_same_v<T, double>) {
      value = i + 2.25;
    } else {
      value = static_cast<T>(i + 2);
    }
  });
}

template <typename S, typename M>
void ExpectMemberEqual(const S& a, const S& b, const M& member,
                       const char* key) {
  std::visit([&](auto m) { EXPECT_EQ(a.*m, b.*m) << key; }, member);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Walks the summary tables: every account field (the two CompareSummaries
// skips, has_ledger and ledger_enclosure_j, included) and every latency
// row field holds a distinct non-default value. Each must parse back
// unchanged, and re-writing the parsed summary must give the same bytes.
TEST(SummaryTest, EveryFieldSurvivesWriteParseWrite) {
  Summary summary;
  summary.workload = "unit";
  summary.policy = "proposed";
  summary.num_enclosures = 12;
  summary.duration = 6 * kHour;
  int i = 0;
  for (const AccountField& f : kAccountFields) {
    SetDistinct(summary, f.member, i++);
  }
  for (uint8_t pattern : {uint8_t{0}, kPatternUnclassified}) {
    LatencyRow row;
    row.pattern = pattern;
    row.outcome = 1;
    for (const RecordField<LatencyRow>& f : kLatencyRowFields) {
      SetDistinct(row, f.member, i++);
    }
    summary.latency.push_back(row);
  }

  const std::string path = TempPath("every_field_summary.json");
  ASSERT_TRUE(WriteSummaryJson(path, summary).ok());
  Summary parsed;
  ASSERT_TRUE(ParseSummaryFile(path, &parsed).ok());
  EXPECT_EQ(parsed.workload, summary.workload);
  EXPECT_EQ(parsed.policy, summary.policy);
  EXPECT_EQ(parsed.num_enclosures, summary.num_enclosures);
  EXPECT_EQ(parsed.duration, summary.duration);
  for (const AccountField& f : kAccountFields) {
    ExpectMemberEqual(parsed, summary, f.member, f.key);
  }
  ASSERT_EQ(parsed.latency.size(), summary.latency.size());
  for (size_t r = 0; r < summary.latency.size(); ++r) {
    EXPECT_EQ(parsed.latency[r].pattern, summary.latency[r].pattern);
    EXPECT_EQ(parsed.latency[r].outcome, summary.latency[r].outcome);
    for (const RecordField<LatencyRow>& f : kLatencyRowFields) {
      ExpectMemberEqual(parsed.latency[r], summary.latency[r], f.member,
                        f.key);
    }
  }

  const std::string again = TempPath("every_field_summary_again.json");
  ASSERT_TRUE(WriteSummaryJson(again, parsed).ok());
  EXPECT_EQ(ReadFile(again), ReadFile(path));
}

// Moving any one gated account field alone is exactly one diff, named
// "section.key"; an ungated field moves nothing.
TEST(SummaryTest, EachGatedAccountFieldAloneGivesOneNamedDiff) {
  const Summary base;
  for (const AccountField& f : kAccountFields) {
    Summary moved = base;
    SetDistinct(moved, f.member, 0);
    const std::vector<SummaryDiff> diffs = CompareAccounts(base, moved, 1e-6);
    if (!f.gated) {
      EXPECT_TRUE(diffs.empty()) << f.key;
      continue;
    }
    ASSERT_EQ(diffs.size(), 1u) << f.key;
    EXPECT_EQ(diffs[0].field, std::string(f.section) + "." + f.key);
  }
}

TEST(SummaryTest, WriteSummaryReportsAFullDevice) {
  EXPECT_EQ(WriteSummaryJson("/dev/full", Summary{}).code(),
            StatusCode::kIoError);
}

// Each account field is a gate field on its own: a summary that moves
// only an advisory or off-window figure is a regression too.
TEST(SummaryTest, CompareSummariesFlagsEveryAccountField) {
  Summary a;
  a.off_credit_j = 1000.0;
  a.advisory_debit_j = 40.0;
  EXPECT_TRUE(CompareSummaries(a, a, 0.0).empty());

  Summary advisory = a;
  advisory.advisory_debit_j = 41.0;
  std::vector<SummaryDiff> diffs = CompareSummaries(a, advisory, 1e-6);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "energy.advisory_debit_j");

  Summary off = a;
  off.off_credit_j = 1001.0;
  diffs = CompareSummaries(a, off, 1e-6);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].field, "energy.off_credit_j");
  // The account comparator behind `tail --reconcile` sees the same.
  EXPECT_EQ(CompareAccounts(a, off, 1e-6).size(), 1u);
}

TEST(SummaryTest, CompareAccountsIgnoresLatency) {
  Summary a;
  Summary b;
  LatencyRow row;
  row.count = 10;
  b.latency.push_back(row);
  EXPECT_TRUE(CompareAccounts(a, b, 0.0).empty());
  EXPECT_FALSE(CompareSummaries(a, b, 0.0).empty());
}

// --- hardened capture parsing ---------------------------------------------

TEST(ParseJsonlTest, TruncatedLineReportsLineNumber) {
  std::string path = TempPath("trunc.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"num_enclosures\":1,\"duration_us\":1000,\"events\":1}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(":2:"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("unterminated"), std::string::npos);
}

TEST(ParseJsonlTest, MissingEventsReportsTruncation) {
  std::string path = TempPath("short.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"num_enclosures\":1,\"duration_us\":1000,\"events\":3}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5,"
            "\"enclosure\":0,\"gap_us\":5}\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("truncated"), std::string::npos)
      << st.ToString();
}

TEST(ParseJsonlTest, GarbageLineReportsLineNumber) {
  std::string path = TempPath("garbage.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"num_enclosures\":1,\"duration_us\":1000,\"events\":0}\n"
            "this is not json\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(":2:"), std::string::npos) << st.ToString();
}

TEST(ParseJsonlTest, UnknownTypeLinesAreSkippedForForwardCompat) {
  std::string path = TempPath("forward.jsonl");
  WriteFile(path,
            "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
            "\"num_enclosures\":1,\"duration_us\":1000,\"events\":1}\n"
            "{\"type\":\"future_section\",\"x\":1}\n"
            "{\"type\":\"event\",\"kind\":\"idle_gap\",\"t\":5,"
            "\"enclosure\":0,\"gap_us\":5}\n");
  ExportMeta meta;
  std::vector<Event> events;
  ASSERT_TRUE(ParseJsonl(path, &meta, &events).ok());
  EXPECT_EQ(events.size(), 1u);
}

std::string MetaLine(const std::string& num_enclosures, int events) {
  return "{\"type\":\"meta\",\"workload\":\"w\",\"policy\":\"p\","
         "\"num_enclosures\":" + num_enclosures +
         ",\"duration_us\":1000,\"events\":" + std::to_string(events) + "}";
}

std::string PowerLine(const std::string& enclosure) {
  return "{\"type\":\"event\",\"kind\":\"power_state\",\"t\":5,"
         "\"enclosure\":" + enclosure +
         ",\"state\":0,\"spinup_us\":0,\"joules\":0,\"plan\":1}";
}

std::string MigrationLine(const std::string& from, const std::string& to) {
  return "{\"type\":\"event\",\"kind\":\"migration_begin\",\"t\":5,"
         "\"item\":3,\"from\":" + from + ",\"to\":" + to +
         ",\"bytes\":4096}";
}

// Enclosure ids are checked against the meta before they are narrowed to
// int32: the id just past the range and one that would wrap to an
// in-range id (2^32 + 1 -> 1) both fail, with the line number.
TEST(ParseJsonlTest, EnclosureIdsOutsideTheMetaAreRejected) {
  const std::string path = TempPath("enclosure_range.jsonl");
  for (const std::string& bad : {std::string("2"), std::string("4294967297"),
                                 std::string("-2")}) {
    SCOPED_TRACE("enclosure " + bad);
    for (const std::string& line :
         {PowerLine(bad), MigrationLine("0", bad), MigrationLine(bad, "1")}) {
      WriteFile(path, MetaLine("2", 1) + "\n" + line + "\n");
      ExportMeta meta;
      std::vector<Event> events;
      Status st = ParseJsonl(path, &meta, &events);
      ASSERT_FALSE(st.ok()) << line;
      EXPECT_NE(st.ToString().find(":2:"), std::string::npos)
          << st.ToString();
      EXPECT_NE(st.ToString().find("outside [-1, 2)"), std::string::npos)
          << st.ToString();
    }
  }
  // The edges of the range parse.
  WriteFile(path, MetaLine("2", 3) + "\n" + PowerLine("1") + "\n" +
                      PowerLine("-1") + "\n" + MigrationLine("-1", "1") +
                      "\n");
  ExportMeta meta;
  std::vector<Event> events;
  Status st = ParseJsonl(path, &meta, &events);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].power.enclosure, 1);
  EXPECT_EQ(events[2].migration.to, 1);
}

TEST(CaptureTailParserRangeTest, RejectsBadIdsAndNegativeEnclosureCounts) {
  CaptureTailParser parser;
  ASSERT_TRUE(parser.Consume(MetaLine("2", 2)).ok());
  EXPECT_TRUE(parser.Consume(PowerLine("0")).ok());
  Status st = parser.Consume(PowerLine("4294967297"));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("enclosure 4294967297"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(parser.Consume(MigrationLine("2", "0")).ok());
  EXPECT_EQ(parser.consumed_events(), 1);

  for (const std::string& count : {std::string("-1"),
                                   std::string("4294967297")}) {
    CaptureTailParser negative;
    st = negative.Consume(MetaLine(count, 0));
    ASSERT_FALSE(st.ok()) << count;
    EXPECT_NE(st.message().find("num_enclosures"), std::string::npos);
  }
}

}  // namespace
}  // namespace ecostore::telemetry::analysis
