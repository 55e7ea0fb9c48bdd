#ifndef ECOSTORE_COMMON_LOGGING_H_
#define ECOSTORE_COMMON_LOGGING_H_

#include <atomic>
#include <sstream>
#include <string>

namespace ecostore {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError, kOff };

/// \brief Destination for finished log lines. The default (no sink) is
/// stderr; a test installs one per thread to observe what was logged.
class LogSink {
 public:
  virtual ~LogSink() = default;

  virtual void WriteLog(LogLevel level, const char* file, int line,
                        const std::string& message) = 0;
};

/// \brief Minimal stream-style logger writing to stderr (or the thread's
/// LogSink when one is installed).
///
/// The library logs sparingly (policy decisions, migrations, state
/// transitions at kDebug). Benchmarks and tests raise the threshold to
/// kWarn/kOff to keep output clean.
///
/// Thread safety: `threshold` is atomic (relaxed — a stale read merely
/// drops or admits a borderline line) so concurrent experiment workers
/// can log while a bench main adjusts verbosity. The sink is
/// thread-local, so the logging fast path needs no cross-thread
/// synchronisation.
class Logger {
 public:
  /// Global severity threshold; messages below it are dropped.
  static std::atomic<LogLevel> threshold;

  /// Installs `sink` as this thread's log destination (nullptr restores
  /// stderr). Returns the previous sink.
  static LogSink* SetThreadSink(LogSink* sink);

  Logger(LogLevel level, const char* file, int line);
  ~Logger();

  template <typename T>
  Logger& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  const char* file_;
  int line_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace ecostore

#define ECOSTORE_LOG(level)                                              \
  ::ecostore::Logger(::ecostore::LogLevel::level, __FILE__, __LINE__)

#endif  // ECOSTORE_COMMON_LOGGING_H_
