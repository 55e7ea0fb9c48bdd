#include "storage/catalog_csv.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace ecostore::storage {

namespace {

const char* KindToToken(DataItemKind kind) { return DataItemKindName(kind); }

Result<DataItemKind> KindFromToken(const std::string& token) {
  for (int k = 0; k <= static_cast<int>(DataItemKind::kWorkFile); ++k) {
    auto kind = static_cast<DataItemKind>(k);
    if (token == DataItemKindName(kind)) return kind;
  }
  return Status::IoError("unknown item kind: " + token);
}

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

bool ParseInt(const std::string& s, int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// Parses a volume, item or enclosure id: ids are non-negative int32, so a
// value outside [0, INT32_MAX] would wrap when narrowed.
bool ParseId(const std::string& s, int64_t* out) {
  return ParseInt(s, out) && *out >= 0 &&
         *out <= std::numeric_limits<int32_t>::max();
}

}  // namespace

Status WriteCatalogCsv(std::ostream& out, const DataItemCatalog& catalog) {
  for (size_t v = 0; v < catalog.volume_count(); ++v) {
    out << "V," << v << ','
        << catalog.volume_enclosure(static_cast<VolumeId>(v)) << '\n';
  }
  for (const DataItem& item : catalog.items()) {
    if (item.name.find(',') != std::string::npos) {
      return Status::InvalidArgument("item name contains a comma: " +
                                     item.name);
    }
    out << "I," << item.id << ',' << item.name << ',' << item.volume << ','
        << item.size_bytes << ',' << KindToToken(item.kind) << ','
        << (item.pinned ? 1 : 0) << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Result<DataItemCatalog> ReadCatalogCsv(std::istream& in) {
  DataItemCatalog catalog;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    line_no++;
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line);
    auto fail = [&](const std::string& what) {
      return Status::IoError(what + " at line " + std::to_string(line_no));
    };
    if (f[0] == "V") {
      if (f.size() != 3) return fail("malformed volume row");
      int64_t id = 0, enc = 0;
      if (!ParseId(f[1], &id) || !ParseId(f[2], &enc)) {
        return fail("bad volume fields");
      }
      VolumeId assigned = catalog.AddVolume(static_cast<EnclosureId>(enc));
      if (assigned != static_cast<VolumeId>(id)) {
        return fail("volume ids must be dense and ordered");
      }
    } else if (f[0] == "I") {
      if (f.size() != 7) return fail("malformed item row");
      int64_t id = 0, volume = 0, size = 0, pinned = 0;
      if (!ParseId(f[1], &id) || !ParseId(f[3], &volume) ||
          !ParseInt(f[4], &size) || !ParseInt(f[6], &pinned) ||
          (pinned != 0 && pinned != 1)) {
        return fail("bad item fields");
      }
      Result<DataItemKind> kind = KindFromToken(f[5]);
      if (!kind.ok()) return kind.status();
      Result<DataItemId> assigned =
          catalog.AddItem(f[2], static_cast<VolumeId>(volume), size,
                          kind.value(), pinned == 1);
      if (!assigned.ok()) return assigned.status();
      if (assigned.value() != static_cast<DataItemId>(id)) {
        return fail("item ids must be dense and ordered");
      }
    } else {
      return fail("unknown record kind '" + f[0] + "'");
    }
  }
  return catalog;
}

Status WriteCatalogCsvFile(const std::string& path,
                           const DataItemCatalog& catalog) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open " + path);
  return WriteCatalogCsv(out, catalog);
}

Result<DataItemCatalog> ReadCatalogCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open " + path);
  return ReadCatalogCsv(in);
}

}  // namespace ecostore::storage
