#ifndef ECOSTORE_BENCH_BENCH_UTIL_H_
#define ECOSTORE_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benchmarks.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "common/logging.h"
#include "common/sim_time.h"

namespace ecostore::bench {

/// Parses the whole of `text` as a base-10 int. Returns false, leaving
/// `*out` untouched, when `text` is empty, malformed, has trailing
/// characters, or is out of the int range.
inline bool ParseInt(std::string_view text, int* out) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

/// ParseInt for the value of a command-line flag: a value it rejects
/// prints a message naming `flag` and exits with status 2.
inline int ParseIntOrExit(const std::string& flag, std::string_view text) {
  int value = 0;
  if (!ParseInt(text, &value)) {
    std::cerr << flag << ": expected a whole number within the int range, "
              << "got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

/// Parses a `--threads=N` argument (default 1 == today's serial
/// behaviour). `--threads=0` means "all hardware threads". Unknown
/// arguments are left alone for the caller.
inline int ParseThreadsFlag(int argc, char** argv) {
  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    const std::string prefix = "--threads=";
    if (arg.rfind(prefix, 0) == 0) {
      threads = ParseIntOrExit("--threads",
                               std::string_view(arg).substr(prefix.size()));
    }
  }
  if (threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? static_cast<int>(hw) : 1;
  }
  return threads;
}

/// Returns the value of a `--flag=value` argument; empty when absent.
/// `prefix` includes the '=' (e.g. "--telemetry=").
inline std::string ParseFlagValue(int argc, char** argv,
                                  const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

/// True when `--flag` (exact) is present.
inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Parses a `--telemetry=<base>` argument; empty when absent. The base
/// names the export set written by telemetry::ExportAll
/// (`<base>.jsonl`, `<base>.power.csv`, `<base>.trace.json`).
inline std::string ParseTelemetryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--telemetry=");
}

/// Parses a `--profile=<base>` argument; empty when absent. The base
/// names the wall-clock profile export pair written by
/// telemetry::profile::ExportProfile (`<base>.profile.jsonl` and
/// `<base>.profile.trace.json`).
inline std::string ParseProfileFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--profile=");
}

/// Parses a `--telemetry-summary=<path>` argument; empty when absent.
/// Names the machine-readable summary JSON written from the capture run
/// (requires --telemetry as the event source).
inline std::string ParseTelemetrySummaryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--telemetry-summary=");
}

/// Parses `--rolling-summary=<path>`: the append-only rolling-window
/// JSONL the instrumented capture run streams while it executes
/// (followed live by `eco_report tail <path>`). Empty when absent —
/// rolling mode off. Requires --telemetry as the event source.
inline std::string ParseRollingSummaryFlag(int argc, char** argv) {
  return ParseFlagValue(argc, argv, "--rolling-summary=");
}

/// Parses `--rolling-window=<sec>`: the rolling-window length in sim
/// seconds (default 60 s). Values <= 0 fall back to the default.
inline SimDuration ParseRollingWindowFlag(int argc, char** argv) {
  const std::string v = ParseFlagValue(argc, argv, "--rolling-window=");
  if (v.empty()) return kMinute;
  const double sec = std::atof(v.c_str());
  if (sec <= 0) return kMinute;
  return static_cast<SimDuration>(sec * static_cast<double>(kSecond));
}

/// True when ECOSTORE_QUICK=1: benchmarks run shortened workloads (for CI
/// and smoke runs); otherwise the paper's full durations are used.
inline bool QuickMode() {
  const char* env = std::getenv("ECOSTORE_QUICK");
  return env != nullptr && std::string(env) == "1";
}

inline SimDuration MaybeShorten(SimDuration full, SimDuration quick) {
  return QuickMode() ? quick : full;
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_reference) {
  std::cout << "==========================================================\n"
            << title << "\n"
            << "paper reference: " << paper_reference << "\n"
            << "==========================================================\n";
}

inline void InitBenchLogging() {
  const char* env = std::getenv("ECOSTORE_LOG");
  Logger::threshold = (env != nullptr && std::string(env) == "debug")
                          ? LogLevel::kDebug
                          : LogLevel::kWarn;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_BENCH_UTIL_H_
