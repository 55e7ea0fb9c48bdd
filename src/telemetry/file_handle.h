#ifndef ECOSTORE_TELEMETRY_FILE_HANDLE_H_
#define ECOSTORE_TELEMETRY_FILE_HANDLE_H_

// The owning FILE handle of the telemetry readers and writers, and the
// one checked close every writer ends with: a write that fails (a full
// disk, /dev/full) is reported, not dropped.

#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"

namespace ecostore::telemetry {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Closes a file written through `f`. A failed write (the stream's error
/// flag) or a failed close (buffered bytes that could not be flushed) is
/// an IoError naming `path`.
inline Status CloseWritten(FilePtr f, const std::string& path) {
  const bool write_failed = std::ferror(f.get()) != 0;
  if (std::fclose(f.release()) != 0 || write_failed) {
    return Status::IoError("cannot write " + path);
  }
  return Status::OK();
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_FILE_HANDLE_H_
