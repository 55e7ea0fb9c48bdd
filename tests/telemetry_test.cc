// Tests for the telemetry subsystem: recorder ring semantics (wrap +
// overflow accounting), counters/gauges, the JSONL and Chrome-trace
// exporters (round-trip + sim-time ordering, and old captures' retired
// keys), the power-timeline builder,
// the logger bridge's simulated timestamps, and the guarantee that an
// attached recorder never changes the replay outcome.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/replay_check.h"
#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// The recorder-behaviour tests assert the *enabled* semantics; in a
// -DECOSTORE_TELEMETRY=OFF build the stub (correctly) records nothing,
// which tests/telemetry_disabled_test.cc verifies instead.
#ifndef ECOSTORE_TELEMETRY_DISABLED

TEST(RecorderTest, DrainsMergedStreamOrderedBySimTime) {
  Recorder recorder;
  recorder.Record(MakeIdleGapEvent(30, 1, 5));
  recorder.Record(MakeIdleGapEvent(10, 2, 6));
  recorder.Record(MakeIdleGapEvent(20, 3, 7));
  std::vector<Event> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[1].time, 20);
  EXPECT_EQ(events[2].time, 30);
  EXPECT_EQ(events[0].idle.enclosure, 2);
  // Drain resets the rings.
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST(RecorderTest, RingWrapKeepsNewestAndAccountsDropped) {
  Recorder::Options options;
  options.thread_buffer_capacity = 8;
  Recorder recorder(options);
  for (int i = 0; i < 20; ++i) {
    recorder.Record(MakeIdleGapEvent(i, 0, i));
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);
  std::vector<Event> events = recorder.Drain();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].time, 12 + i);  // the 8 newest survive, in order
  }
}

TEST(RecorderTest, WantsHonoursNullAndMask) {
  EXPECT_FALSE(Wants(nullptr, kClassPower));
  Recorder recorder;
  EXPECT_TRUE(Wants(&recorder, kClassPower));
  // The default mask excludes the per-I/O detail class.
  EXPECT_FALSE(Wants(&recorder, kClassIoDetail));
  recorder.set_mask(kClassAll);
  EXPECT_TRUE(Wants(&recorder, kClassIoDetail));
  recorder.set_mask(0);
  EXPECT_FALSE(Wants(&recorder, kClassPower));
}

TEST(RecorderTest, CountersAndGauges) {
  Recorder recorder;
  Counter* flushes = recorder.counter("flushes");
  flushes->Increment();
  flushes->Add(4);
  EXPECT_EQ(flushes->value(), 5);
  EXPECT_EQ(recorder.counter("flushes"), flushes);  // stable registry

  Gauge* depth = recorder.gauge("heap_depth");
  depth->Set(7);
  depth->Max(3);  // lower: no effect
  EXPECT_EQ(depth->value(), 7);
  depth->Max(11);
  EXPECT_EQ(depth->value(), 11);

  auto counters = recorder.CounterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "flushes");
  EXPECT_EQ(counters[0].second, 5);
  auto gauges = recorder.GaugeValues();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].second, 11);
}

TEST(RecorderTest, ConcurrentRecordingAndLoggingIsRaceFree) {
  // Four writer threads share one recorder: each gets its own ring, the
  // log capture is mutex-guarded. Run under -DECOSTORE_SANITIZE=thread
  // (the tsan CI preset) this is the telemetry race check.
  Recorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeIdleGapEvent(i, static_cast<EnclosureId>(t), i));
      }
      recorder.WriteLog(LogLevel::kWarn, 123, "telemetry_test.cc", 0,
                        "worker done");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<Event> events = recorder.Drain();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].time, events[i].time);
  }
  EXPECT_EQ(recorder.DrainLogs().size(), static_cast<size_t>(kThreads));
}

#endif  // !ECOSTORE_TELEMETRY_DISABLED

TEST(LoggerTest, ThresholdIsAtomicallyAdjustable) {
  LogLevel before = Logger::threshold.load();
  Logger::threshold = LogLevel::kOff;
  EXPECT_EQ(Logger::threshold.load(), LogLevel::kOff);
  Logger::threshold.store(before);
}

#ifndef ECOSTORE_TELEMETRY_DISABLED

TEST(LoggerBridgeTest, LogLinesCarrySimulatedTimestamps) {
  Recorder recorder;
  sim::Simulator sim;
  ScopedLoggerBridge bridge(
      &recorder,
      [](const void* s) {
        return static_cast<const sim::Simulator*>(s)->Now();
      },
      &sim);
  sim.ScheduleAt(42, [] { ECOSTORE_LOG(kWarn) << "hello from t=42"; });
  sim.RunAll();
  std::vector<LogLine> logs = recorder.DrainLogs();
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0].sim_time, 42);
  EXPECT_EQ(logs[0].level, LogLevel::kWarn);
  EXPECT_EQ(logs[0].message, "hello from t=42");
}

#endif  // !ECOSTORE_TELEMETRY_DISABLED

// --- exporters ------------------------------------------------------------

std::vector<Event> SampleEvents() {
  std::vector<Event> events;
  events.push_back(MakePowerEvent(0, 0, 2, 0));
  events.push_back(MakeIdleGapEvent(5 * kSecond, 1, 3 * kSecond));
  events.push_back(
      MakeCacheEvent(6 * kSecond, EventKind::kCacheFlush, 7, 2, 16, 65536));
  events.push_back(MakeCacheEvent(7 * kSecond, EventKind::kPreloadBegin, 9,
                                  3, 0, 1 << 20));
  events.push_back(MakeMigrationEvent(8 * kSecond, EventKind::kMigrationBegin,
                                      11, 4, 5, 1 << 21));
  events.push_back(MakeMigrationEvent(9 * kSecond, EventKind::kMigrationEnd,
                                      11, 4, 5, -1));
  DecisionPayload d;
  d.item = 42;
  d.pattern = 1;
  d.actions = kActionPreload | kActionWriteDelay;
  d.enclosure = 2;
  d.long_intervals = 3;
  d.io_sequences = 4;
  d.read_permille = 714;
  d.total_ios = 21;
  events.push_back(MakeDecisionEvent(10 * kSecond, d));
  events.push_back(MakeHotColdEvent(10 * kSecond, 0b0101, 2, 4));
  events.push_back(MakeAdaptEvent(10 * kSecond, 520 * kSecond,
                                  600 * kSecond, 414 * kSecond));
  events.push_back(MakePeriodEvent(10 * kSecond, 0, 0, 600 * kSecond));
  events.push_back(MakeSimStatsEvent(10 * kSecond, 100, 40, 2, 7));
  events.push_back(MakePowerEvent(12 * kSecond, 1, 0, 0));
  return events;
}

TEST(ExportTest, JsonlRoundTripPreservesEveryKindAndOrder) {
  ExportMeta meta;
  meta.workload = "unit";
  meta.policy = "proposed";
  meta.num_enclosures = 6;
  meta.duration = 20 * kSecond;
  std::vector<Event> events = SampleEvents();

  std::string path = TempPath("roundtrip.jsonl");
  ASSERT_TRUE(WriteJsonl(path, meta, events).ok());

  ExportMeta meta_back;
  std::vector<Event> back;
  ASSERT_TRUE(ParseJsonl(path, &meta_back, &back).ok());
  EXPECT_EQ(meta_back.workload, meta.workload);
  EXPECT_EQ(meta_back.policy, meta.policy);
  EXPECT_EQ(meta_back.num_enclosures, meta.num_enclosures);
  EXPECT_EQ(meta_back.duration, meta.duration);

  ASSERT_EQ(back.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(back[i].time, events[i].time) << "event " << i;
    if (i > 0) {
      EXPECT_LE(back[i - 1].time, back[i].time);
    }
  }
  // Spot-check one payload of each family survives the round trip.
  EXPECT_EQ(back[0].power.state, 2);
  EXPECT_EQ(back[1].idle.gap, 3 * kSecond);
  EXPECT_EQ(back[2].cache.item, 7);
  EXPECT_EQ(back[2].cache.bytes, 65536);
  EXPECT_EQ(back[4].migration.to, 5);
  EXPECT_EQ(back[5].migration.bytes, -1);  // failed commit marker
  EXPECT_EQ(back[6].decision.item, 42);
  EXPECT_EQ(back[6].decision.actions, kActionPreload | kActionWriteDelay);
  EXPECT_EQ(back[6].decision.read_permille, 714);
  EXPECT_EQ(back[7].hot_cold.hot_mask, 0b0101u);
  EXPECT_EQ(back[8].adapt.next_period, 600 * kSecond);
  EXPECT_EQ(back[9].period.next_period, 600 * kSecond);
  EXPECT_EQ(back[10].sim_stats.peak_heap_depth, 100);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ExportTest, RetiredShardKeyParsesToTheSameEvent) {
  // Captures written while events carried a shard tag spell it as a
  // "shard" key after the kind; the format no longer has one, and such a
  // line must parse to exactly the event of the same line without it.
  ExportMeta meta;
  meta.workload = "unit";
  meta.policy = "proposed";
  meta.num_enclosures = 4;
  meta.duration = 20 * kSecond;
  const Event event = MakeCacheEvent(5 * kSecond, EventKind::kWriteDelayFlush,
                                     7, 3, 16, 65536, 2);
  const std::string path = TempPath("retired_shard.jsonl");
  ASSERT_TRUE(WriteJsonl(path, meta, {event, event}).ok());

  // Tag the second event line the way those captures did.
  std::string text = ReadFile(path);
  const std::string kind = "\"kind\":\"" +
                           std::string(EventKindName(event.kind)) + "\"";
  const size_t first = text.find(kind);
  ASSERT_NE(first, std::string::npos);
  const size_t second = text.find(kind, first + 1);
  ASSERT_NE(second, std::string::npos);
  text.insert(second + kind.size(), ",\"shard\":65535");
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  ExportMeta meta_back;
  std::vector<Event> back;
  ASSERT_TRUE(ParseJsonl(path, &meta_back, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  const Event& plain = back[0];
  const Event& tagged = back[1];
  EXPECT_EQ(tagged.time, plain.time);
  EXPECT_EQ(tagged.kind, plain.kind);
  EXPECT_EQ(tagged.pad16, plain.pad16);
  EXPECT_EQ(tagged.pad32, plain.pad32);
  EXPECT_EQ(tagged.cache.item, plain.cache.item);
  EXPECT_EQ(tagged.cache.enclosure, plain.cache.enclosure);
  EXPECT_EQ(tagged.cache.blocks, plain.cache.blocks);
  EXPECT_EQ(tagged.cache.bytes, plain.cache.bytes);
  EXPECT_EQ(tagged.cache.plan, plain.cache.plan);
  EXPECT_EQ(plain.cache.bytes, event.cache.bytes);

  // Re-exported, the two events are byte-identical lines.
  const std::string plain_path = TempPath("retired_shard_plain.jsonl");
  const std::string tagged_path = TempPath("retired_shard_tagged.jsonl");
  ASSERT_TRUE(WriteJsonl(plain_path, meta, {plain}).ok());
  ASSERT_TRUE(WriteJsonl(tagged_path, meta, {tagged}).ok());
  EXPECT_EQ(ReadFile(tagged_path), ReadFile(plain_path));
}

TEST(ExportTest, PowerTimelineReconstructsDwellSegments) {
  ExportMeta meta;
  meta.num_enclosures = 2;
  meta.duration = 300 * kSecond;
  std::vector<Event> events;
  // Enclosure 0: on from t=0, off at 100 s, spin-up (12 s) at 200 s.
  events.push_back(MakePowerEvent(100 * kSecond, 0, 0, 0));
  events.push_back(MakePowerEvent(200 * kSecond, 0, 1, 12 * kSecond));
  // Enclosure 1: never transitions — one full-duration On segment.

  std::vector<PowerSegment> segments = BuildPowerTimeline(meta, events);
  ASSERT_EQ(segments.size(), 5u);
  EXPECT_EQ(segments[0].enclosure, 0);
  EXPECT_EQ(segments[0].state, 2);  // On
  EXPECT_EQ(segments[0].start, 0);
  EXPECT_EQ(segments[0].end, 100 * kSecond);
  EXPECT_EQ(segments[1].state, 0);  // Off
  EXPECT_EQ(segments[1].end, 200 * kSecond);
  EXPECT_EQ(segments[2].state, 1);  // SpinningUp
  EXPECT_EQ(segments[2].end, 212 * kSecond);
  EXPECT_EQ(segments[3].state, 2);  // On until the run ends
  EXPECT_EQ(segments[3].end, 300 * kSecond);
  EXPECT_EQ(segments[4].enclosure, 1);
  EXPECT_EQ(segments[4].state, 2);
  EXPECT_EQ(segments[4].start, 0);
  EXPECT_EQ(segments[4].end, 300 * kSecond);
}

TEST(ExportTest, ChromeTraceIsOrderedByTimestamp) {
  ExportMeta meta;
  meta.num_enclosures = 6;
  meta.duration = 20 * kSecond;
  std::string path = TempPath("trace.json");
  ASSERT_TRUE(WriteChromeTrace(path, meta, SampleEvents()).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\""), std::string::npos);
  // Every "ts" must be non-decreasing (chrome://tracing requirement for
  // streamed loading) — scan them out without a JSON parser.
  long long prev = -1;
  int count = 0;
  for (size_t pos = content.find("\"ts\":"); pos != std::string::npos;
       pos = content.find("\"ts\":", pos + 1)) {
    long long ts = std::atoll(content.c_str() + pos + 5);
    EXPECT_LE(prev, ts);
    prev = ts;
    count++;
  }
  EXPECT_GT(count, 0);
}

TEST(ExportTest, ExportAllWritesTheThreeFilesAndStripsJsonlSuffix) {
  ExportMeta meta;
  meta.num_enclosures = 2;
  meta.duration = 20 * kSecond;
  std::string base = TempPath("run.jsonl");  // suffix must be stripped
  ASSERT_TRUE(ExportAll(base, meta, SampleEvents()).ok());
  for (const char* suffix : {".jsonl", ".power.csv", ".trace.json"}) {
    std::string path = TempPath("run") + suffix;
    std::FILE* f = std::fopen(path.c_str(), "r");
    EXPECT_NE(f, nullptr) << path;
    if (f != nullptr) std::fclose(f);
  }
}

// --- replay bit-identity --------------------------------------------------

TEST(TelemetryReplayTest, AttachedRecorderKeepsReplayBitIdentical) {
  workload::FileServerConfig wl;
  wl.duration = 3 * kMinute;
  auto fingerprint = [&wl](Recorder* recorder) {
    auto workload = workload::FileServerWorkload::Create(wl);
    EXPECT_TRUE(workload.ok());
    core::EcoStoragePolicy policy{core::PowerManagementConfig{}};
    replay::ExperimentConfig config;
    config.telemetry = recorder;
    replay::Experiment experiment(workload.value().get(), &policy, config);
    auto metrics = experiment.Run();
    EXPECT_TRUE(metrics.ok());
    return bench::MetricsFingerprint(metrics.value());
  };

  Recorder::Options options;
  options.mask = kClassAll;  // even the per-I/O detail class
  Recorder recorder(options);
  uint64_t with_telemetry = fingerprint(&recorder);
  uint64_t without = fingerprint(nullptr);
  EXPECT_EQ(with_telemetry, without);
  if (Recorder::kEnabled) {
    EXPECT_GT(recorder.recorded(), 0u);
  }
}

}  // namespace
}  // namespace ecostore::telemetry
