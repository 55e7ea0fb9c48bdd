#include "workload/recorded_workload.h"

#include <algorithm>
#include <limits>

#include "storage/catalog_csv.h"
#include "trace/trace_csv.h"

namespace ecostore::workload {

Result<std::unique_ptr<RecordedWorkload>> RecordedWorkload::FromRecords(
    std::string name, storage::DataItemCatalog catalog,
    std::vector<trace::LogicalIoRecord> records, SimDuration duration,
    int num_enclosures) {
  // Validate ordering, item references and extents: the cache computes
  // `offset + size - 1`, so an offset past the item (or one that would
  // overflow) never reaches replay.
  SimTime last = 0;
  for (const trace::LogicalIoRecord& rec : records) {
    if (rec.time < last) {
      return Status::InvalidArgument("trace records out of time order");
    }
    last = rec.time;
    if (rec.item < 0 ||
        static_cast<size_t>(rec.item) >= catalog.item_count()) {
      return Status::InvalidArgument("trace references unknown item " +
                                     std::to_string(rec.item));
    }
    if (rec.offset < 0 || rec.size < 0 ||
        rec.offset >= catalog.item(rec.item).size_bytes ||
        rec.offset > std::numeric_limits<int64_t>::max() - rec.size) {
      return Status::InvalidArgument(
          "trace record outside item " + std::to_string(rec.item) +
          ": offset " + std::to_string(rec.offset) + ", size " +
          std::to_string(rec.size));
    }
  }
  if (num_enclosures == 0) {
    for (size_t v = 0; v < catalog.volume_count(); ++v) {
      num_enclosures = std::max(
          num_enclosures,
          catalog.volume_enclosure(static_cast<VolumeId>(v)) + 1);
    }
  }
  if (num_enclosures <= 0) {
    return Status::InvalidArgument("catalog maps to no enclosures");
  }
  if (duration == 0) duration = last + 1;

  std::unique_ptr<RecordedWorkload> workload(new RecordedWorkload());
  workload->info_.name = std::move(name);
  workload->info_.duration = duration;
  workload->info_.num_enclosures = num_enclosures;
  for (const storage::DataItem& item : catalog.items()) {
    workload->info_.total_data_bytes += item.size_bytes;
  }
  workload->catalog_ = std::move(catalog);
  workload->records_ = std::move(records);
  return workload;
}

Result<std::unique_ptr<RecordedWorkload>> RecordedWorkload::Load(
    const std::string& prefix) {
  Result<storage::DataItemCatalog> catalog =
      storage::ReadCatalogCsvFile(prefix + ".catalog.csv");
  if (!catalog.ok()) return catalog.status();
  Result<std::vector<trace::LogicalIoRecord>> records =
      trace::ReadLogicalCsvFile(prefix + ".trace.csv");
  if (!records.ok()) return records.status();
  return FromRecords(prefix, std::move(catalog).value(),
                     std::move(records).value());
}

Result<std::unique_ptr<RecordedWorkload>> RecordedWorkload::Capture(
    Workload* source) {
  source->Reset();
  std::vector<trace::LogicalIoRecord> records;
  trace::LogicalIoRecord rec;
  while (source->Next(&rec)) records.push_back(rec);
  source->Reset();
  // Copy the catalog by round-tripping its parts.
  storage::DataItemCatalog catalog;
  for (size_t v = 0; v < source->catalog().volume_count(); ++v) {
    catalog.AddVolume(
        source->catalog().volume_enclosure(static_cast<VolumeId>(v)));
  }
  for (const storage::DataItem& item : source->catalog().items()) {
    Result<DataItemId> added = catalog.AddItem(
        item.name, item.volume, item.size_bytes, item.kind, item.pinned);
    if (!added.ok()) return added.status();
  }
  return FromRecords(source->info().name + "_recorded", std::move(catalog),
                     std::move(records), source->info().duration,
                     source->info().num_enclosures);
}

Status RecordedWorkload::Save(const std::string& prefix) const {
  ECOSTORE_RETURN_NOT_OK(
      storage::WriteCatalogCsvFile(prefix + ".catalog.csv", catalog_));
  return trace::WriteLogicalCsvFile(prefix + ".trace.csv", records_);
}

bool RecordedWorkload::Next(trace::LogicalIoRecord* rec) {
  while (cursor_ < records_.size()) {
    const trace::LogicalIoRecord& r = records_[cursor_++];
    if (r.time >= info_.duration) continue;
    *rec = r;
    return true;
  }
  return false;
}

size_t RecordedWorkload::NextBatch(std::vector<trace::LogicalIoRecord>* out,
                                   size_t max_records) {
  out->clear();
  size_t want = std::min(max_records, records_.size() - cursor_);
  // Records are time-ordered, so if the last record of the window is
  // inside the duration the whole window is: one contiguous copy.
  if (want > 0 && records_[cursor_ + want - 1].time < info_.duration) {
    auto begin = records_.begin() + static_cast<ptrdiff_t>(cursor_);
    out->insert(out->end(), begin, begin + static_cast<ptrdiff_t>(want));
    cursor_ += want;
    return out->size();
  }
  // Tail of the stream (or a truncating duration): per-record filter.
  while (out->size() < max_records && cursor_ < records_.size()) {
    const trace::LogicalIoRecord& r = records_[cursor_++];
    if (r.time >= info_.duration) continue;
    out->push_back(r);
  }
  return out->size();
}

}  // namespace ecostore::workload
