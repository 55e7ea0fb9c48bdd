// Unit tests for trace/: buffers and CSV round-trips.

#include <gtest/gtest.h>

#include <sstream>

#include "trace/io_record.h"
#include "trace/trace_buffer.h"
#include "trace/trace_csv.h"

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

}  // namespace
}  // namespace ecostore::trace
