#include "trace/trace_csv.h"

#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

namespace ecostore::trace {

namespace {

constexpr std::string_view kHeader = "time_us,item,offset,size,type,sequential,tag";

bool ParseInt(std::string_view field, int64_t* out) {
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *out);
  return ec == std::errc() && ptr == field.data() + field.size();
}

// Parses an integer and requires it to lie in [lo, hi], so narrowing it
// afterwards cannot wrap.
bool ParseIntIn(std::string_view field, int64_t lo, int64_t hi,
                int64_t* out) {
  return ParseInt(field, out) && *out >= lo && *out <= hi;
}

constexpr int64_t kInt32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kInt32Max = std::numeric_limits<int32_t>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// Splits a CSV line into exactly `n` comma-separated fields.
bool SplitFields(std::string_view line, std::string_view* fields, size_t n) {
  size_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t comma = line.find(',', start);
    bool last = (i == n - 1);
    if (last) {
      if (comma != std::string_view::npos) return false;  // too many fields
      fields[i] = line.substr(start);
    } else {
      if (comma == std::string_view::npos) return false;  // too few fields
      fields[i] = line.substr(start, comma - start);
      start = comma + 1;
    }
  }
  return true;
}

}  // namespace

Status WriteLogicalCsv(std::ostream& out,
                       const std::vector<LogicalIoRecord>& records) {
  out << kHeader << '\n';
  for (const LogicalIoRecord& r : records) {
    out << r.time << ',' << r.item << ',' << r.offset << ',' << r.size << ','
        << IoTypeName(r.type) << ',' << (r.sequential ? 1 : 0) << ',' << r.tag
        << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Result<std::vector<LogicalIoRecord>> ReadLogicalCsv(std::istream& in) {
  std::vector<LogicalIoRecord> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    line_no++;
    if (line.empty()) continue;
    if (line_no == 1 && line == kHeader) continue;
    std::string_view fields[7];
    if (!SplitFields(line, fields, 7)) {
      return Status::IoError("malformed CSV row at line " +
                             std::to_string(line_no));
    }
    LogicalIoRecord rec;
    int64_t v = 0;
    if (!ParseInt(fields[0], &v)) {
      return Status::IoError("bad time at line " + std::to_string(line_no));
    }
    rec.time = v;
    if (!ParseIntIn(fields[1], kInt32Min, kInt32Max, &v)) {
      return Status::IoError("bad item at line " + std::to_string(line_no));
    }
    rec.item = static_cast<DataItemId>(v);
    if (!ParseIntIn(fields[2], 0, kInt64Max, &v)) {
      return Status::IoError("bad offset at line " + std::to_string(line_no));
    }
    rec.offset = v;
    if (!ParseIntIn(fields[3], 0, kInt32Max, &v)) {
      return Status::IoError("bad size at line " + std::to_string(line_no));
    }
    rec.size = static_cast<int32_t>(v);
    if (fields[4] == "R") {
      rec.type = IoType::kRead;
    } else if (fields[4] == "W") {
      rec.type = IoType::kWrite;
    } else {
      return Status::IoError("bad type at line " + std::to_string(line_no));
    }
    if (!ParseInt(fields[5], &v) || (v != 0 && v != 1)) {
      return Status::IoError("bad sequential flag at line " +
                             std::to_string(line_no));
    }
    rec.sequential = (v == 1);
    if (!ParseIntIn(fields[6], kInt32Min, kInt32Max, &v)) {
      return Status::IoError("bad tag at line " + std::to_string(line_no));
    }
    rec.tag = static_cast<int32_t>(v);
    records.push_back(rec);
  }
  return records;
}

Status WriteLogicalCsvFile(const std::string& path,
                           const std::vector<LogicalIoRecord>& records) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  return WriteLogicalCsv(out, records);
}

Result<std::vector<LogicalIoRecord>> ReadLogicalCsvFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadLogicalCsv(in);
}

}  // namespace ecostore::trace
