// Tests for the wall-clock phase profiler (telemetry/profile/): ring
// semantics, scoped-phase stamping, thread binding, and the two export
// formats (JSONL interchange + real-time Chrome trace), including old
// captures that carry retired keys and phases.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/profile/profile_export.h"
#include "telemetry/profile/profiler.h"

namespace ecostore::telemetry::profile {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Span MakeSpan(int64_t start_ns, int64_t dur_ns, Phase phase,
              uint32_t seq = 0, int64_t detail = 0) {
  Span s;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.phase = static_cast<uint16_t>(phase);
  s.seq = seq;
  s.detail = detail;
  return s;
}

TEST(ProfilerTest, RecordAndDrain) {
  Profiler profiler;
  profiler.Record(MakeSpan(100, 10, Phase::kIngest));
  profiler.Record(MakeSpan(50, 5, Phase::kPlan));
  EXPECT_EQ(profiler.recorded(), 2u);
  EXPECT_EQ(profiler.dropped(), 0u);

  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 2u);
  // Drain merges in start-time order regardless of record order.
  EXPECT_EQ(spans[0].start_ns, 50);
  EXPECT_EQ(spans[1].start_ns, 100);

  // Drain resets the rings.
  EXPECT_TRUE(profiler.Drain().empty());
}

TEST(ProfilerTest, RingWrapAccountsDropped) {
  Profiler::Options options;
  options.thread_ring_capacity = 4;
  Profiler profiler(options);
  for (int i = 0; i < 10; ++i) {
    profiler.Record(MakeSpan(i, 1, Phase::kIngest));
  }
  EXPECT_EQ(profiler.recorded(), 10u);
  EXPECT_EQ(profiler.dropped(), 6u);  // 10 recorded into a 4-slot ring

  // The survivors are the NEWEST 4 spans, in record order.
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].start_ns, 6 + i);
  }
}

TEST(ProfilerTest, MultiThreadRingsMergeSorted) {
  Profiler profiler;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&profiler, t] {
      for (int i = 0; i < 100; ++i) {
        profiler.Record(MakeSpan(i * 4 + t, 1, Phase::kIngest));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(profiler.recorded(), 400u);
  EXPECT_EQ(profiler.dropped(), 0u);

  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 400u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns, spans[i].start_ns);
  }
}

TEST(ProfilerTest, ScopedPhaseStampsBindingAndCorrelation) {
  Profiler profiler;
  {
    ScopedThreadProfiler bind(&profiler);
    ScopedCorrelation corr(17);
    ScopedPhase outer(Phase::kPeriodEnd, 42);
    { ScopedPhase inner(Phase::kPlan); }
  }
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span closes first but starts later; Drain orders by start.
  EXPECT_EQ(spans[0].phase, static_cast<uint16_t>(Phase::kPeriodEnd));
  EXPECT_EQ(spans[1].phase, static_cast<uint16_t>(Phase::kPlan));
  for (const Span& s : spans) {
    EXPECT_EQ(s.seq, 17u);
    EXPECT_GE(s.dur_ns, 0);
  }
  EXPECT_EQ(spans[0].detail, 42);
  // Nesting: the inner span lies inside the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
            spans[0].start_ns + spans[0].dur_ns);
}

TEST(ProfilerTest, UnboundThreadIsInert) {
  Profiler profiler;
  // No ScopedThreadProfiler: phases must not record anywhere.
  { ScopedPhase phase(Phase::kIngest); }
  EXPECT_EQ(profiler.recorded(), 0u);
  EXPECT_TRUE(profiler.Drain().empty());

  // Binding null explicitly masks an outer binding for its scope.
  ScopedThreadProfiler outer(&profiler);
  {
    ScopedThreadProfiler mask(nullptr);
    ScopedPhase phase(Phase::kIngest);
  }
  { ScopedPhase phase(Phase::kPlan); }
  std::vector<Span> spans = profiler.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].phase, static_cast<uint16_t>(Phase::kPlan));
}

TEST(ProfilerTest, ScopedBindingsRestorePrevious) {
  Profiler a, b;
  ScopedThreadProfiler bind_a(&a);
  {
    ScopedThreadProfiler bind_b(&b);
    EXPECT_EQ(ThreadProfiler(), &b);
  }
  EXPECT_EQ(ThreadProfiler(), &a);
  {
    ScopedCorrelation corr(9);
    EXPECT_EQ(ThreadCorrelation(), 9u);
  }
  EXPECT_EQ(ThreadCorrelation(), 0u);
}

TEST(ProfileExportTest, JsonlRoundTrip) {
  ProfileMeta meta;
  meta.workload = "file_server_20min";
  meta.policy = "eco_storage";
  meta.host_cpus = 16;
  meta.wall_ns = 1234567890;
  meta.dropped = 3;
  std::vector<Span> spans = {
      MakeSpan(100, 50, Phase::kPeriodEnd, 1, 0),
      MakeSpan(110, 20, Phase::kPlan, 1, 333),
      MakeSpan(160, 5, Phase::kIngest, 2, 0),
  };
  meta.spans = spans.size();

  const std::string path = TempPath("profile_roundtrip.profile.jsonl");
  ASSERT_TRUE(WriteProfileJsonl(path, meta, spans).ok());

  ProfileMeta parsed;
  std::vector<Span> parsed_spans;
  ASSERT_TRUE(ParseProfileJsonl(path, &parsed, &parsed_spans).ok());
  EXPECT_EQ(parsed.workload, meta.workload);
  EXPECT_EQ(parsed.policy, meta.policy);
  EXPECT_EQ(parsed.host_cpus, meta.host_cpus);
  EXPECT_EQ(parsed.wall_ns, meta.wall_ns);
  EXPECT_EQ(parsed.spans, meta.spans);
  EXPECT_EQ(parsed.dropped, meta.dropped);
  ASSERT_EQ(parsed_spans.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(parsed_spans[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(parsed_spans[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(parsed_spans[i].phase, spans[i].phase);
    EXPECT_EQ(parsed_spans[i].seq, spans[i].seq);
    EXPECT_EQ(parsed_spans[i].detail, spans[i].detail);
  }
}

TEST(ProfileExportTest, PhaseNamesRoundTrip) {
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(PhaseFromName(PhaseName(phase)), phase);
  }
  EXPECT_EQ(PhaseFromName("not_a_phase"), Phase::kNone);
}

TEST(ProfileExportTest, TraceUsesRealTimeTrack) {
  ProfileMeta meta;
  meta.workload = "w";
  meta.policy = "p";
  meta.spans = 1;
  std::vector<Span> spans = {MakeSpan(1500, 2500, Phase::kPlan, 4, 0)};

  const std::string path = TempPath("profile_trace.trace.json");
  ASSERT_TRUE(WriteProfileTrace(path, meta, spans).ok());
  const std::string text = ReadFile(path);
  // The real-time track lives on pid 10 (the sim-time trace owns pids
  // 0-3) and carries the correlation seq so the two clock domains can be
  // joined.
  EXPECT_NE(text.find("\"pid\":10"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":4"), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"plan\""), std::string::npos);
}

TEST(ProfileExportTest, ExportBaseStripsSuffixes) {
  ProfileMeta meta;
  meta.workload = "w";
  meta.policy = "p";
  std::vector<Span> spans;

  const std::string base = TempPath("profile_base_strip");
  // `--profile=<base>.profile.jsonl` and `--profile=<base>` are the same.
  ASSERT_TRUE(ExportProfile(base + ".profile.jsonl", meta, spans).ok());
  ProfileMeta parsed;
  std::vector<Span> parsed_spans;
  EXPECT_TRUE(
      ParseProfileJsonl(base + ".profile.jsonl", &parsed, &parsed_spans).ok());
  EXPECT_TRUE(std::ifstream(base + ".profile.trace.json").good());
}

TEST(ProfileExportTest, OldCaptureWithRetiredKeysAndPhasesLoads) {
  // A capture from a build that still had lanes: a "shards" meta key,
  // pool figures, "lane" on every span, and a phase name that no longer
  // exists. It loads; the retired phase reads back as kNone.
  const std::string path = TempPath("profile_retired.profile.jsonl");
  std::ofstream(path)
      << "{\"type\":\"profile_meta\",\"workload\":\"w\",\"policy\":\"p\","
         "\"shards\":8,\"host_cpus\":4,\"wall_ns\":1000,\"spans\":2,"
         "\"dropped\":0,\"pool_workers\":8,\"pool_tasks\":10,"
         "\"pool_busy_ns\":500,\"pool_peak_queue\":2}\n"
         "{\"type\":\"span\",\"phase\":\"lane_advance\",\"start_ns\":10,"
         "\"dur_ns\":20,\"lane\":3,\"seq\":1,\"detail\":7}\n"
         "{\"type\":\"span\",\"phase\":\"plan\",\"start_ns\":40,"
         "\"dur_ns\":5,\"lane\":3,\"seq\":1,\"detail\":0}\n";
  ProfileMeta meta;
  std::vector<Span> spans;
  const Status st = ParseProfileJsonl(path, &meta, &spans);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(meta.workload, "w");
  EXPECT_EQ(meta.host_cpus, 4);
  EXPECT_EQ(meta.spans, 2u);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].phase, static_cast<uint16_t>(Phase::kNone));
  EXPECT_EQ(spans[0].start_ns, 10);
  EXPECT_EQ(spans[0].dur_ns, 20);
  EXPECT_EQ(spans[0].seq, 1u);
  EXPECT_EQ(spans[0].detail, 7);
  EXPECT_EQ(spans[1].phase, static_cast<uint16_t>(Phase::kPlan));
}

TEST(ProfileExportTest, ParseRejectsGarbage) {
  const std::string path = TempPath("profile_garbage.jsonl");
  std::ofstream(path) << "this is not a profile capture\n";
  ProfileMeta meta;
  std::vector<Span> spans;
  EXPECT_FALSE(ParseProfileJsonl(path, &meta, &spans).ok());
}

}  // namespace
}  // namespace ecostore::telemetry::profile
