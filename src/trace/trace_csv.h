#ifndef ECOSTORE_TRACE_TRACE_CSV_H_
#define ECOSTORE_TRACE_TRACE_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "trace/io_record.h"

namespace ecostore::trace {

/// Writes logical I/O records as CSV with a header row
/// (`time_us,item,offset,size,type,sequential,tag`).
Status WriteLogicalCsv(std::ostream& out,
                       const std::vector<LogicalIoRecord>& records);

/// Parses logical I/O records from CSV produced by WriteLogicalCsv.
/// Tolerates a missing header row. Fails on malformed rows and on fields
/// out of range for the record: a negative offset or size, or an item,
/// size or tag outside int32.
Result<std::vector<LogicalIoRecord>> ReadLogicalCsv(std::istream& in);

/// Convenience file wrappers.
Status WriteLogicalCsvFile(const std::string& path,
                           const std::vector<LogicalIoRecord>& records);
Result<std::vector<LogicalIoRecord>> ReadLogicalCsvFile(
    const std::string& path);

}  // namespace ecostore::trace

#endif  // ECOSTORE_TRACE_TRACE_CSV_H_
