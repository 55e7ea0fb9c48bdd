#ifndef ECOSTORE_BENCH_BENCH_UTIL_H_
#define ECOSTORE_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benchmarks.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
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

/// Parses the whole of `text` as a finite number greater than zero.
/// Returns false, leaving `*out` untouched, otherwise.
inline bool ParsePositive(std::string_view text, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value) || value <= 0) {
    return false;
  }
  *out = value;
  return true;
}

/// ParsePositive for the value of a command-line flag: a value it
/// rejects prints a message naming `flag` and exits with status 2.
inline double ParsePositiveOrExit(const std::string& flag,
                                  std::string_view text) {
  double value = 0;
  if (!ParsePositive(text, &value)) {
    std::cerr << flag << ": expected a positive number, got '" << text
              << "'\n";
    std::exit(2);
  }
  return value;
}

/// ParsePositiveOrExit for a flag given in seconds, converted to sim
/// time. A value that is not a positive number, or that rounds to less
/// than 1 us or overflows SimDuration, exits with status 2 as well.
inline SimDuration ParseSecondsOrExit(const std::string& flag,
                                      std::string_view text) {
  const double us =
      ParsePositiveOrExit(flag, text) * static_cast<double>(kSecond);
  if (us < 1 || us >= 9.2e18) {
    std::cerr << flag << ": " << text << " s is outside [1e-6, 9.2e12]\n";
    std::exit(2);
  }
  return static_cast<SimDuration>(us);
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
/// `prefix` includes the '=' (e.g. "--enclosures=").
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

/// The flags of the instrumented capture run every figure bench shares
/// (see CaptureTelemetry in bench/telemetry_capture.h).
struct CaptureFlags {
  /// `--telemetry=<base>`: writes `<base>.jsonl`, `<base>.power.csv` and
  /// `<base>.trace.json`. Empty = no capture run.
  std::string telemetry_base;
  /// `--telemetry-summary=<path>`: the analyzer's summary JSON.
  std::string summary_path;
  /// `--rolling-summary=<path>`: the append-only rolling-window JSONL the
  /// capture run streams while it executes (tailable via `eco_report
  /// tail`). Empty = rolling mode off.
  std::string rolling_path;
  /// `--rolling-window=<sec>`: rolling-window length in sim time.
  SimDuration rolling_window = kMinute;
  /// `--profile=<base>`: attaches the wall-clock phase profiler and
  /// writes `<base>.profile.jsonl` and `<base>.profile.trace.json`.
  std::string profile_base;
  /// `--capture-only` (with --telemetry): skip the figures and run just
  /// the capture.
  bool capture_only = false;
};

/// Fills CaptureFlags from the command line. The summary, rolling and
/// profile outputs all come from the capture run, so they need
/// --telemetry. A bad `--rolling-window` exits with status 2 (see
/// ParseSecondsOrExit). Other arguments are left alone for the caller.
inline CaptureFlags ParseCaptureFlags(int argc, char** argv) {
  CaptureFlags flags;
  flags.telemetry_base = ParseFlagValue(argc, argv, "--telemetry=");
  flags.summary_path = ParseFlagValue(argc, argv, "--telemetry-summary=");
  flags.rolling_path = ParseFlagValue(argc, argv, "--rolling-summary=");
  flags.profile_base = ParseFlagValue(argc, argv, "--profile=");
  const std::string prefix = "--rolling-window=";
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind(prefix, 0) == 0) {
      flags.rolling_window =
          ParseSecondsOrExit("--rolling-window", arg.substr(prefix.size()));
    }
  }
  flags.capture_only = HasFlag(argc, argv, "--capture-only") &&
                       !flags.telemetry_base.empty();
  return flags;
}

/// Keeps the compiler from discarding `value`, or the work that made it:
/// an empty asm statement that the compiler must assume reads `value`
/// and clobbers memory.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// What one timing loop measured: `calls` timed calls in `seconds` of
/// wall time.
struct Timing {
  int64_t calls = 0;
  double seconds = 0.0;

  /// Work done per second, when each call does `units_per_call` units.
  double PerSecond(int64_t units_per_call = 1) const {
    return static_cast<double>(units_per_call * calls) / seconds;
  }
  double SecondsPerCall() const {
    return seconds / static_cast<double>(calls);
  }
};

/// Calls `fn` once untimed (the warm-up grows reusable scratch to steady
/// state), then again and again until `min_seconds` of wall time have
/// passed or `max_calls` timed calls have run, whichever comes first.
template <typename Fn>
Timing TimeCalls(double min_seconds, Fn&& fn,
                 int64_t max_calls = std::numeric_limits<int64_t>::max()) {
  using Clock = std::chrono::steady_clock;
  fn();
  Timing timing;
  const Clock::time_point start = Clock::now();
  do {
    fn();
    timing.calls++;
    timing.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  } while (timing.seconds < min_seconds && timing.calls < max_calls);
  return timing;
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
