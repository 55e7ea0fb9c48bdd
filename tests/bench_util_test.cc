// Tests for the benchmark CLIs' shared flag parsing (bench/bench_util.h).

#include <gtest/gtest.h>

#include <climits>
#include <string>

#include "bench/bench_util.h"

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

}  // namespace
}  // namespace ecostore::bench
