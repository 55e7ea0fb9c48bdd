#include "common/logging.h"

#include <cstdio>
#include <cstring>

namespace ecostore {

std::atomic<LogLevel> Logger::threshold{LogLevel::kWarn};

namespace {

/// This thread's sink (nullptr = stderr): the fast path needs no locks
/// and threads never observe another thread's sink.
thread_local LogSink* t_sink = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogSink* Logger::SetThreadSink(LogSink* sink) {
  LogSink* previous = t_sink;
  t_sink = sink;
  return previous;
}

Logger::Logger(LogLevel level, const char* file, int line)
    : enabled_(level >= threshold.load(std::memory_order_relaxed) &&
               level != LogLevel::kOff),
      file_(file),
      line_(line),
      level_(level) {}

Logger::~Logger() {
  if (!enabled_) return;
  if (t_sink != nullptr) {
    t_sink->WriteLog(level_, Basename(file_), line_, stream_.str());
    return;
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level_), Basename(file_),
               line_, stream_.str().c_str());
}

}  // namespace ecostore
