// Tests for catalog CSV serialization and the recorded (capture/replay)
// workload.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/units.h"
#include "storage/catalog_csv.h"
#include "storage/storage_config.h"
#include "workload/file_server_workload.h"
#include "workload/recorded_workload.h"

namespace ecostore::workload {
namespace {

storage::DataItemCatalog SampleCatalog() {
  storage::DataItemCatalog catalog;
  VolumeId v0 = catalog.AddVolume(0);
  VolumeId v1 = catalog.AddVolume(2);
  EXPECT_TRUE(
      catalog.AddItem("table_a", v0, 1000, storage::DataItemKind::kTable)
          .ok());
  EXPECT_TRUE(catalog
                  .AddItem("meta", v1, 50, storage::DataItemKind::kIndex,
                           /*pinned=*/true)
                  .ok());
  return catalog;
}

TEST(CatalogCsvTest, RoundTrip) {
  storage::DataItemCatalog catalog = SampleCatalog();
  std::ostringstream out;
  ASSERT_TRUE(storage::WriteCatalogCsv(out, catalog).ok());
  std::istringstream in(out.str());
  auto parsed = storage::ReadCatalogCsv(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().item_count(), 2u);
  EXPECT_EQ(parsed.value().volume_count(), 2u);
  EXPECT_EQ(parsed.value().volume_enclosure(1), 2);
  EXPECT_EQ(parsed.value().item(0).name, "table_a");
  EXPECT_EQ(parsed.value().item(1).kind, storage::DataItemKind::kIndex);
  EXPECT_TRUE(parsed.value().item(1).pinned);
}

TEST(CatalogCsvTest, RejectsMalformedRows) {
  std::istringstream bad_kind("V,0,0\nI,0,x,0,10,alien,0\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(bad_kind).ok());
  std::istringstream bad_prefix("X,1,2\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(bad_prefix).ok());
  std::istringstream sparse_ids("V,0,0\nI,5,x,0,10,file,0\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(sparse_ids).ok());
}

// Ids and enclosures wider than int32 (or negative) are rejected rather
// than wrapped: volume 2^32 would otherwise read back as volume 0.
TEST(CatalogCsvTest, RejectsOutOfRangeIds) {
  std::istringstream volume_high("V,4294967296,0\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(volume_high).ok());
  std::istringstream enclosure_high("V,0,4294967296\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(enclosure_high).ok());
  std::istringstream enclosure_negative("V,0,-1\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(enclosure_negative).ok());
  std::istringstream item_high("V,0,0\nI,4294967296,x,0,10,file,0\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(item_high).ok());
  std::istringstream item_volume_high(
      "V,0,0\nI,0,x,4294967296,10,file,0\n");
  EXPECT_FALSE(storage::ReadCatalogCsv(item_volume_high).ok());
}

TEST(CatalogCsvTest, RejectsCommaInName) {
  storage::DataItemCatalog catalog;
  VolumeId v = catalog.AddVolume(0);
  ASSERT_TRUE(
      catalog.AddItem("a,b", v, 10, storage::DataItemKind::kFile).ok());
  std::ostringstream out;
  EXPECT_FALSE(storage::WriteCatalogCsv(out, catalog).ok());
}

std::vector<trace::LogicalIoRecord> SampleRecords() {
  std::vector<trace::LogicalIoRecord> records;
  for (int i = 0; i < 5; ++i) {
    trace::LogicalIoRecord rec;
    rec.time = i * kSecond;
    rec.item = i % 2;
    rec.size = 4096;
    rec.type = i % 2 == 0 ? IoType::kRead : IoType::kWrite;
    records.push_back(rec);
  }
  return records;
}

TEST(RecordedWorkloadTest, FromRecordsStreamsAndResets) {
  auto workload = RecordedWorkload::FromRecords(
      "sample", SampleCatalog(), SampleRecords());
  ASSERT_TRUE(workload.ok());
  EXPECT_EQ(workload.value()->info().num_enclosures, 3);  // volume on enc 2
  trace::LogicalIoRecord rec;
  int n = 0;
  while (workload.value()->Next(&rec)) n++;
  EXPECT_EQ(n, 5);
  workload.value()->Reset();
  ASSERT_TRUE(workload.value()->Next(&rec));
  EXPECT_EQ(rec.time, 0);
}

TEST(RecordedWorkloadTest, RejectsOutOfOrderAndUnknownItems) {
  auto records = SampleRecords();
  std::swap(records[0], records[4]);
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());

  records = SampleRecords();
  records[2].item = 99;
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());
}

// Item 0 of SampleCatalog() is 1000 bytes: offsets must fall inside it,
// and INT64_MAX must not reach the cache's `offset + size - 1`.
TEST(RecordedWorkloadTest, RejectsRecordsOutsideTheirItem) {
  auto records = SampleRecords();
  records[0].offset = 999;
  EXPECT_TRUE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());

  records[0].offset = 1000;
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());

  records[0].offset = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());

  records = SampleRecords();
  records[0].offset = -1;
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());

  records = SampleRecords();
  records[0].size = -1;
  EXPECT_FALSE(
      RecordedWorkload::FromRecords("x", SampleCatalog(), records).ok());
}

// The narrowing fix end to end: a trace whose item id is 2^32 used to load
// as item 0.
TEST(RecordedWorkloadTest, LoadRejectsWrappingItemId) {
  std::string prefix = ::testing::TempDir() + "/ecostore_wrap";
  {
    std::ofstream catalog(prefix + ".catalog.csv");
    catalog << "V,0,0\nI,0,x,0,1000,file,0\n";
    std::ofstream trace(prefix + ".trace.csv");
    trace << "time_us,item,offset,size,type,sequential,tag\n"
          << "0,4294967296,0,512,R,0,0\n";
  }
  EXPECT_FALSE(RecordedWorkload::Load(prefix).ok());
  std::remove((prefix + ".catalog.csv").c_str());
  std::remove((prefix + ".trace.csv").c_str());
}

TEST(RecordedWorkloadTest, CaptureMatchesSource) {
  FileServerConfig config;
  config.duration = 3 * kMinute;
  config.popular_files = 20;
  config.tail_files = 10;
  config.archive_files = 2;
  config.big_hot_files = 2;
  config.small_hot_files = 4;
  config.big_hot_file_bytes = 1 * kGiB;
  config.archive_file_bytes = 1 * kGiB;
  auto source = FileServerWorkload::Create(config);
  ASSERT_TRUE(source.ok());

  auto recorded = RecordedWorkload::Capture(source.value().get());
  ASSERT_TRUE(recorded.ok());
  EXPECT_EQ(recorded.value()->catalog().item_count(),
            source.value()->catalog().item_count());

  // Replaying both yields identical streams.
  source.value()->Reset();
  trace::LogicalIoRecord a, b;
  while (source.value()->Next(&a)) {
    ASSERT_TRUE(recorded.value()->Next(&b));
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.item, b.item);
    EXPECT_EQ(a.offset, b.offset);
  }
  EXPECT_FALSE(recorded.value()->Next(&b));
}

TEST(RecordedWorkloadTest, SaveLoadRoundTrip) {
  auto workload = RecordedWorkload::FromRecords(
      "sample", SampleCatalog(), SampleRecords());
  ASSERT_TRUE(workload.ok());
  std::string prefix = ::testing::TempDir() + "/ecostore_rec";
  ASSERT_TRUE(workload.value()->Save(prefix).ok());
  auto loaded = RecordedWorkload::Load(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->records().size(), 5u);
  EXPECT_EQ(loaded.value()->catalog().item_count(), 2u);
  std::remove((prefix + ".catalog.csv").c_str());
  std::remove((prefix + ".trace.csv").c_str());
}

TEST(RecordedWorkloadTest, LoadMissingFileFails) {
  EXPECT_FALSE(RecordedWorkload::Load("/nonexistent/prefix").ok());
}

TEST(StorageConfigPresetTest, SsdPresetValidWithTinyBreakEven) {
  storage::EnclosureConfig ssd = storage::SsdEnclosureConfig();
  EXPECT_TRUE(ssd.Validate().ok());
  EXPECT_LT(ssd.BreakEvenTime(), 3 * kSecond);
  storage::EnclosureConfig hdd = storage::EnterpriseHddEnclosureConfig();
  EXPECT_TRUE(hdd.Validate().ok());
  EXPECT_GT(hdd.BreakEvenTime(), 45 * kSecond);
  EXPECT_LT(hdd.idle_power, hdd.active_power);
  EXPECT_LT(ssd.idle_power, hdd.idle_power);
}

}  // namespace
}  // namespace ecostore::workload
