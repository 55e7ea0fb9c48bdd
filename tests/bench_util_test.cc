// Tests for the benchmark CLIs' shared flag parsing (bench/bench_util.h),
// which eco_report uses for its number flags too, for bench_micro's
// timing loop, and for the golden fingerprint file of the replay gate
// (bench/replay_check.h).

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/replay_check.h"

namespace ecostore::bench {
namespace {

TEST(ParseIntTest, AcceptsWholeNumbers) {
  int v = -1;
  EXPECT_TRUE(ParseInt("0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt("10000", &v));
  EXPECT_EQ(v, 10000);
  EXPECT_TRUE(ParseInt("-3", &v));
  EXPECT_EQ(v, -3);
  EXPECT_TRUE(ParseInt(std::to_string(INT_MAX), &v));
  EXPECT_EQ(v, INT_MAX);
  EXPECT_TRUE(ParseInt(std::to_string(INT_MIN), &v));
  EXPECT_EQ(v, INT_MIN);
}

TEST(ParseIntTest, RejectsMalformedAndOutOfRange) {
  int v = 42;
  for (const char* bad : {"", "abc", "12abc", "1.5", " 7", "7 ", "+7", "0x10",
                          "-", "2147483648", "-2147483649",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ParseInt(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42) << "'" << bad << "'";
  }
}

TEST(ParseIntTest, BadFlagValueExitsWithStatus2) {
  EXPECT_EXIT(ParseIntOrExit("--enclosures", "abc"),
              ::testing::ExitedWithCode(2), "--enclosures");
  EXPECT_EQ(ParseIntOrExit("--enclosures", "120"), 120);
}

TEST(ParseThreadsFlagTest, ZeroMeansAllHardwareThreads) {
  char prog[] = "bench";
  char one[] = "--threads=1";
  char zero[] = "--threads=0";
  char* argv_one[] = {prog, one};
  char* argv_zero[] = {prog, zero};
  char* argv_none[] = {prog};
  EXPECT_EQ(ParseThreadsFlag(2, argv_one), 1);
  EXPECT_EQ(ParseThreadsFlag(1, argv_none), 1);
  EXPECT_GE(ParseThreadsFlag(2, argv_zero), 1);
}

TEST(ParseThreadsFlagTest, MalformedValueExitsWithStatus2) {
  char prog[] = "bench";
  char bad[] = "--threads=abc";
  char* argv[] = {prog, bad};
  EXPECT_EXIT(ParseThreadsFlag(2, argv), ::testing::ExitedWithCode(2),
              "--threads");
}

TEST(ParsePositiveTest, AcceptsOnlyFinitePositiveNumbers) {
  double v = -1;
  EXPECT_TRUE(ParsePositive("1e-6", &v));
  EXPECT_EQ(v, 1e-6);
  EXPECT_TRUE(ParsePositive("300", &v));
  EXPECT_EQ(v, 300.0);
  for (const char* bad : {"", "abc", "0", "-1", "0.0", "1e-6x", " 1", "+1",
                          "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParsePositive(bad, &v)) << "'" << bad << "'";
    EXPECT_EQ(v, 300.0) << "'" << bad << "'";
  }
}

TEST(ParsePositiveTest, BadFlagValueExitsWithStatus2) {
  EXPECT_EXIT(ParsePositiveOrExit("--tolerance", "abc"),
              ::testing::ExitedWithCode(2),
              "--tolerance: expected a positive number, got 'abc'");
  EXPECT_EXIT(ParseSecondsOrExit("--window", "1e-9"),
              ::testing::ExitedWithCode(2), "--window");
  EXPECT_EQ(ParseSecondsOrExit("--window", "0.5"), kSecond / 2);
}

TEST(ParseCaptureFlagsTest, FillsEveryField) {
  char prog[] = "bench";
  char telemetry[] = "--telemetry=cap";
  char summary[] = "--telemetry-summary=cap.json";
  char rolling[] = "--rolling-summary=roll.jsonl";
  char window[] = "--rolling-window=300";
  char profile[] = "--profile=prof";
  char capture_only[] = "--capture-only";
  char threads[] = "--threads=2";  // someone else's flag: left alone
  char* argv[] = {prog,   telemetry, summary,      rolling,
                  window, profile,   capture_only, threads};
  const CaptureFlags flags = ParseCaptureFlags(8, argv);
  EXPECT_EQ(flags.telemetry_base, "cap");
  EXPECT_EQ(flags.summary_path, "cap.json");
  EXPECT_EQ(flags.rolling_path, "roll.jsonl");
  EXPECT_EQ(flags.rolling_window, 300 * kSecond);
  EXPECT_EQ(flags.profile_base, "prof");
  EXPECT_TRUE(flags.capture_only);
}

TEST(ParseCaptureFlagsTest, DefaultsAndCaptureOnlyNeedsTelemetry) {
  char prog[] = "bench";
  char capture_only[] = "--capture-only";
  char* argv[] = {prog, capture_only};
  const CaptureFlags flags = ParseCaptureFlags(2, argv);
  EXPECT_TRUE(flags.telemetry_base.empty());
  EXPECT_TRUE(flags.summary_path.empty());
  EXPECT_TRUE(flags.rolling_path.empty());
  EXPECT_EQ(flags.rolling_window, kMinute);
  EXPECT_TRUE(flags.profile_base.empty());
  EXPECT_FALSE(flags.capture_only);
}

TEST(ParseCaptureFlagsTest, BadRollingWindowExitsWithStatus2) {
  char prog[] = "bench";
  for (const char* bad : {"--rolling-window=abc", "--rolling-window=0",
                          "--rolling-window=-60", "--rolling-window="}) {
    std::string arg = bad;
    char* argv[] = {prog, arg.data()};
    EXPECT_EXIT(ParseCaptureFlags(2, argv), ::testing::ExitedWithCode(2),
                "--rolling-window: expected a positive number")
        << bad;
  }
}

TEST(TimeCallsTest, WarmsUpOnceThenStopsAtTheCallBound) {
  int calls = 0;
  const Timing timing = TimeCalls(1e9, [&calls] { calls++; }, 10);
  EXPECT_EQ(timing.calls, 10);
  EXPECT_EQ(calls, 11);  // one untimed warm-up
  EXPECT_GT(timing.seconds, 0.0);
  EXPECT_DOUBLE_EQ(timing.PerSecond(5), 50.0 / timing.seconds);
  EXPECT_DOUBLE_EQ(timing.SecondsPerCall(), timing.seconds / 10.0);
}

TEST(TimeCallsTest, TimesOneCallWhenTheTimeBoundIsZero) {
  int calls = 0;
  const Timing timing = TimeCalls(0.0, [&calls] { calls++; });
  EXPECT_EQ(timing.calls, 1);
  EXPECT_EQ(calls, 2);
}

TEST(GoldenFingerprintsTest, RoundTrip) {
  const std::vector<ReplayCheckRun> runs = {{"a/eco", 0x0123456789abcdefull},
                                            {"b/pdc", 42}};
  const std::string path = ::testing::TempDir() + "golden_roundtrip.txt";
  ASSERT_TRUE(SaveGoldenFingerprints(path, runs));
  std::vector<ReplayCheckRun> loaded;
  ASSERT_TRUE(LoadGoldenFingerprints(path, &loaded));
  ASSERT_EQ(loaded.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(loaded[i].label, runs[i].label);
    EXPECT_EQ(loaded[i].fingerprint, runs[i].fingerprint);
  }
  std::remove(path.c_str());
}

// A write that fails only at the final flush (a full device) is a
// failure, not a recorded golden file.
TEST(GoldenFingerprintsTest, FailedWriteIsReported) {
  const std::vector<ReplayCheckRun> runs = {{"a/eco", 1}};
  EXPECT_FALSE(SaveGoldenFingerprints("/dev/full", runs));
}

}  // namespace
}  // namespace ecostore::bench
