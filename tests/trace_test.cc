// Unit tests for trace/: buffers, CSV round-trips, statistics.

#include <gtest/gtest.h>

#include <sstream>

#include "trace/io_record.h"
#include "trace/trace_buffer.h"
#include "trace/trace_csv.h"
#include "trace/trace_stats.h"

namespace ecostore::trace {
namespace {

LogicalIoRecord Rec(SimTime t, DataItemId item, IoType type,
                    int32_t size = 4096) {
  LogicalIoRecord rec;
  rec.time = t;
  rec.item = item;
  rec.size = size;
  rec.type = type;
  return rec;
}

TEST(TraceBufferTest, GroupByItemPreservesOrder) {
  LogicalTraceBuffer buffer;
  buffer.Append(Rec(10, 1, IoType::kRead));
  buffer.Append(Rec(20, 2, IoType::kWrite));
  buffer.Append(Rec(30, 1, IoType::kRead));
  auto groups = buffer.GroupByItem();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[1], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(groups[2], (std::vector<size_t>{1}));
}

TEST(TraceBufferTest, ClearEmpties) {
  LogicalTraceBuffer buffer;
  buffer.Append(Rec(10, 1, IoType::kRead));
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

TEST(TraceCsvTest, RoundTrip) {
  std::vector<LogicalIoRecord> records;
  for (int i = 0; i < 10; ++i) {
    LogicalIoRecord rec = Rec(i * 1000, i % 3,
                              i % 2 == 0 ? IoType::kRead : IoType::kWrite,
                              8192);
    rec.offset = i * 8192;
    rec.sequential = (i % 2 == 0);
    rec.tag = i;
    records.push_back(rec);
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteLogicalCsv(out, records).ok());

  std::istringstream in(out.str());
  auto parsed = ReadLogicalCsv(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].time, records[i].time);
    EXPECT_EQ(parsed.value()[i].item, records[i].item);
    EXPECT_EQ(parsed.value()[i].offset, records[i].offset);
    EXPECT_EQ(parsed.value()[i].size, records[i].size);
    EXPECT_EQ(parsed.value()[i].type, records[i].type);
    EXPECT_EQ(parsed.value()[i].sequential, records[i].sequential);
    EXPECT_EQ(parsed.value()[i].tag, records[i].tag);
  }
}

TEST(TraceCsvTest, RejectsMalformedRows) {
  std::istringstream too_few("1,2,3\n");
  EXPECT_FALSE(ReadLogicalCsv(too_few).ok());
  std::istringstream bad_type("1,2,3,4,X,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(bad_type).ok());
  std::istringstream bad_time("abc,2,3,4,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(bad_time).ok());
  std::istringstream bad_seq("1,2,3,4,R,7,0\n");
  EXPECT_FALSE(ReadLogicalCsv(bad_seq).ok());
}

// Fields wider than their record type are rejected, not wrapped: item
// 2^32 would otherwise read back as item 0 and size 2^32 + 8192 as 8192.
TEST(TraceCsvTest, RejectsOutOfRangeFields) {
  std::istringstream item_high("1,4294967296,0,8192,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(item_high).ok());
  std::istringstream item_low("1,-2147483649,0,8192,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(item_low).ok());
  std::istringstream size_high("1,2,0,4294975488,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(size_high).ok());
  std::istringstream size_negative("1,2,0,-1,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(size_negative).ok());
  std::istringstream offset_negative("1,2,-8192,8192,R,0,0\n");
  EXPECT_FALSE(ReadLogicalCsv(offset_negative).ok());
  std::istringstream tag_high("1,2,0,8192,R,0,4294967296\n");
  EXPECT_FALSE(ReadLogicalCsv(tag_high).ok());
}

TEST(TraceCsvTest, AcceptsFieldsAtTheirLimits) {
  std::istringstream in(
      "1,2147483647,9223372036854775807,2147483647,W,1,-2147483648\n");
  auto parsed = ReadLogicalCsv(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].item, 2147483647);
  EXPECT_EQ(parsed.value()[0].offset, INT64_MAX);
  EXPECT_EQ(parsed.value()[0].size, 2147483647);
  EXPECT_EQ(parsed.value()[0].tag, -2147483648LL);
}

TEST(TraceCsvTest, EmptyInputIsEmptyTrace) {
  std::istringstream in("");
  auto parsed = ReadLogicalCsv(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(TraceStatsTest, ItemStatsAggregates) {
  LogicalTraceBuffer buffer;
  buffer.Append(Rec(10, 1, IoType::kRead, 100));
  buffer.Append(Rec(20, 1, IoType::kWrite, 200));
  buffer.Append(Rec(30, 1, IoType::kRead, 300));
  auto stats = ComputeItemStats(buffer);
  ASSERT_EQ(stats.size(), 1u);
  const ItemPeriodStats& s = stats[1];
  EXPECT_EQ(s.reads, 2);
  EXPECT_EQ(s.writes, 1);
  EXPECT_EQ(s.read_bytes, 400);
  EXPECT_EQ(s.write_bytes, 200);
  EXPECT_EQ(s.first_io, 10);
  EXPECT_EQ(s.last_io, 30);
  EXPECT_NEAR(s.read_ratio(), 2.0 / 3.0, 1e-9);
}

TEST(TraceStatsTest, ExtractGapsIncludesEdges) {
  std::vector<SimTime> times = {10 * kSecond, 15 * kSecond};
  auto gaps = ExtractGaps(times, 0, 100 * kSecond);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], 10 * kSecond);
  EXPECT_EQ(gaps[1], 5 * kSecond);
  EXPECT_EQ(gaps[2], 85 * kSecond);
}

TEST(TraceStatsTest, ExtractGapsEmptyIsWholePeriod) {
  auto gaps = ExtractGaps({}, 5, 105);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0], 100);
}

TEST(IopsSeriesTest, MaxAndAverage) {
  IopsSeries series(0, 10 * kSecond, 1 * kSecond);
  EXPECT_EQ(series.bucket_count(), 10u);
  // 5 I/Os in bucket 0, 1 I/O in bucket 3.
  for (int i = 0; i < 5; ++i) series.Add(100 * kMillisecond);
  series.Add(3 * kSecond + 1);
  EXPECT_DOUBLE_EQ(series.MaxIops(), 5.0);
  EXPECT_DOUBLE_EQ(series.AverageIops(), 0.6);
  EXPECT_DOUBLE_EQ(series.IopsAt(3), 1.0);
}

TEST(IopsSeriesTest, LateSamplesClampToLastBucket) {
  IopsSeries series(0, 2 * kSecond, 1 * kSecond);
  series.Add(100 * kSecond);  // way past the end
  EXPECT_DOUBLE_EQ(series.IopsAt(1), 1.0);
}

TEST(IopsSeriesTest, MergeAdds) {
  IopsSeries a(0, 2 * kSecond, 1 * kSecond);
  IopsSeries b(0, 2 * kSecond, 1 * kSecond);
  a.Add(0);
  b.Add(1);
  b.Add(1 * kSecond);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.IopsAt(0), 2.0);
  EXPECT_DOUBLE_EQ(a.IopsAt(1), 1.0);
}

}  // namespace
}  // namespace ecostore::trace
