#ifndef ECOSTORE_STORAGE_CATALOG_CSV_H_
#define ECOSTORE_STORAGE_CATALOG_CSV_H_

#include <iosfwd>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/data_item.h"

namespace ecostore::storage {

/// Serializes a data-item catalog (volumes + items) as CSV. Two record
/// kinds share the stream, discriminated by the first field:
///   V,<volume_id>,<enclosure>
///   I,<item_id>,<name>,<volume>,<size_bytes>,<kind>,<pinned>
/// Volume and item ids must be dense and in order (as produced by
/// DataItemCatalog).
Status WriteCatalogCsv(std::ostream& out, const DataItemCatalog& catalog);

/// Parses a catalog written by WriteCatalogCsv. Fails on malformed rows and
/// on volume, item or enclosure ids outside [0, INT32_MAX].
Result<DataItemCatalog> ReadCatalogCsv(std::istream& in);

Status WriteCatalogCsvFile(const std::string& path,
                           const DataItemCatalog& catalog);
Result<DataItemCatalog> ReadCatalogCsvFile(const std::string& path);

}  // namespace ecostore::storage

#endif  // ECOSTORE_STORAGE_CATALOG_CSV_H_
