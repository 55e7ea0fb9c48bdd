// Tests for the telemetry subsystem: the recorder keeps every event and
// drains them in sim-time order (also across threads), its class mask,
// the JSONL and Chrome-trace exporters (round-trip of every kind and
// field, sim-time ordering, old captures' retired keys, failed writes),
// the power-timeline builder, and the guarantee that an attached
// recorder never changes the replay outcome.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "bench/replay_check.h"
#include "common/logging.h"
#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "telemetry/export.h"
#include "telemetry/recorder.h"
#include "workload/file_server_workload.h"

namespace ecostore::telemetry {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

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
  // Drain empties the recorder.
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST(RecorderTest, KeepsEveryEventPastTheOldDefaultCapacity) {
  // 2^18 was the default per-thread ring capacity, past which the oldest
  // events used to be overwritten. Recorded in reverse time order, so the
  // drain must also reorder all of them.
  constexpr int kEvents = (1 << 18) + 1000;
  Recorder recorder;
  for (int i = 0; i < kEvents; ++i) {
    recorder.Record(MakeIdleGapEvent(kEvents - 1 - i, 0, i));
  }
  EXPECT_EQ(recorder.recorded(), static_cast<uint64_t>(kEvents));
  std::vector<Event> events = recorder.Drain();
  ASSERT_EQ(events.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(events[i].time, i) << "i=" << i;
  }
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST(RecorderTest, WantsHonoursNullAndMask) {
  EXPECT_FALSE(Wants(nullptr, kClassPower));
  Recorder recorder;
  EXPECT_TRUE(Wants(&recorder, kClassPower));
  // The default mask excludes the per-I/O detail class.
  EXPECT_FALSE(Wants(&recorder, kClassIoDetail));
  Recorder all(kClassAll);
  EXPECT_TRUE(Wants(&all, kClassIoDetail));
  Recorder none(0);
  EXPECT_FALSE(Wants(&none, kClassPower));
}

TEST(RecorderTest, ConcurrentRecordingIsRaceFree) {
  // Four writer threads share one recorder, each with its own buffer.
  // Run under -DECOSTORE_SANITIZE=thread (the tsan CI preset) this is
  // the telemetry race check.
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
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  std::vector<Event> events = recorder.Drain();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].time, events[i].time);
  }
}

TEST(LoggerTest, ThresholdIsAtomicallyAdjustable) {
  LogLevel before = Logger::threshold.load();
  Logger::threshold = LogLevel::kOff;
  EXPECT_EQ(Logger::threshold.load(), LogLevel::kOff);
  Logger::threshold.store(before);
}

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

template <typename S>
void ExpectFieldEqual(const S& a, const S& b, const RecordField<S>& field) {
  std::visit([&](auto m) { EXPECT_EQ(a.*m, b.*m) << field.key; },
             field.member);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Walks the format tables: one event of every kind with a distinct
// non-default value in every payload field, behind a meta with a power
// model. Each field must parse back unchanged, and re-writing the parsed
// capture must give the same bytes.
TEST(ExportTest, JsonlRoundTripPreservesEveryKindAndOrder) {
  ExportMeta meta;
  meta.workload = "unit";
  meta.policy = "proposed";
  meta.num_enclosures = 64;
  meta.duration = 40 * kSecond;
  meta.has_power_model = true;
  int i = 0;
  for (const RecordField<ExportMeta>& f : kPowerModelFields) {
    SetDistinct(meta, f.member, i++);
  }
  std::vector<Event> events;
  for (size_t k = 1; k < std::size(kEventKinds); ++k) {
    Event e = MakeEvent(static_cast<SimTime>(k) * kSecond,
                        static_cast<EventKind>(k));
    VisitPayload(e.kind, [&](const auto& layout) {
      auto payload = e.*layout.member;
      for (size_t f = 0; f < layout.fields.size(); ++f) {
        SetDistinct(payload, layout.fields[f].member,
                    static_cast<int>(k + f));
      }
      e.*layout.member = payload;
    });
    events.push_back(e);
  }

  const std::string path = TempPath("roundtrip.jsonl");
  ASSERT_TRUE(WriteJsonl(path, meta, events).ok());
  ExportMeta meta_back;
  std::vector<Event> back;
  ASSERT_TRUE(ParseJsonl(path, &meta_back, &back).ok());
  EXPECT_EQ(meta_back.workload, meta.workload);
  EXPECT_EQ(meta_back.policy, meta.policy);
  EXPECT_EQ(meta_back.num_enclosures, meta.num_enclosures);
  EXPECT_EQ(meta_back.duration, meta.duration);
  EXPECT_TRUE(meta_back.has_power_model);
  for (const RecordField<ExportMeta>& f : kPowerModelFields) {
    ExpectFieldEqual(meta_back, meta, f);
  }

  ASSERT_EQ(back.size(), events.size());
  for (size_t k = 0; k < events.size(); ++k) {
    SCOPED_TRACE(EventKindName(events[k].kind));
    EXPECT_EQ(back[k].kind, events[k].kind);
    EXPECT_EQ(back[k].time, events[k].time);
    VisitPayload(events[k].kind, [&](const auto& layout) {
      for (const auto& f : layout.fields) {
        ExpectFieldEqual(back[k].*layout.member, events[k].*layout.member, f);
      }
    });
  }

  const std::string again = TempPath("roundtrip_again.jsonl");
  ASSERT_TRUE(WriteJsonl(again, meta_back, back).ok());
  EXPECT_EQ(ReadFile(again), ReadFile(path));
}

// Every writer ends with a checked close: a device that takes no bytes
// fails the write instead of leaving a silently empty file.
TEST(ExportTest, WritersReportAFullDevice) {
  ExportMeta meta;
  meta.num_enclosures = 6;
  meta.duration = 20 * kSecond;
  const std::vector<Event> events = SampleEvents();
  EXPECT_EQ(WriteJsonl("/dev/full", meta, events).code(),
            StatusCode::kIoError);
  EXPECT_EQ(WritePowerTimelineCsv("/dev/full", meta, events).code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteChromeTrace("/dev/full", meta, events).code(),
            StatusCode::kIoError);
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

  Recorder recorder(kClassAll);  // even the per-I/O detail class
  uint64_t with_telemetry = fingerprint(&recorder);
  uint64_t without = fingerprint(nullptr);
  EXPECT_EQ(with_telemetry, without);
  EXPECT_GT(recorder.recorded(), 0u);
}

}  // namespace
}  // namespace ecostore::telemetry
