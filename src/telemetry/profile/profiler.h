#ifndef ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_
#define ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_

// Wall-clock phase profiler for the replay engine (DESIGN.md §15).
//
// The telemetry recorder observes *simulated* time exhaustively; this
// layer observes the engine's own *wall-clock* behaviour: scoped phase
// timers on std::chrono::steady_clock appending 32-byte POD spans to the
// same per-thread append log the event recorder keeps its events in
// (telemetry/thread_log.h), so a profile keeps every span of a run.
// Spans carry a correlation id (the monitoring-period index) so wall-time
// profiles line up with the sim-time event stream across the two clock
// domains.
//
// An un-profiled run pays one thread-local load + branch per ScopedPhase
// site; a profiled thread pays two steady_clock reads per span plus one
// 32-byte append.
//
// The profiler is bound per *thread*, not threaded through call
// signatures: Experiment::Run installs it with ScopedThreadProfiler, and
// interior phases (classify-finalise, plan, migrate, flush — core/ code
// with no profiler parameter) just open a ScopedPhase, which is inert
// unless the thread is bound. The profiler
// never touches simulator or policy state, so attaching one cannot change
// replay results (enforced by the fingerprint gate, which runs every job
// with a profiler attached).
//
// Thread model: Record() takes no lock once the recording thread's
// buffer is bound. Drain() requires writers to be quiescent — it runs
// after the engine returns.

#include <chrono>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "telemetry/thread_log.h"

namespace ecostore::telemetry::profile {

/// Which part of the engine a span covers. The numeric values are part of
/// the capture format, so new phases append before kCount.
enum class Phase : uint16_t {
  kNone = 0,

  kIngest,           ///< one replay batch: generate + submit + account
  kClassifyFinalize, ///< PatternClassifier::Finalize at a period end
  kPlan,             ///< placement / cache planning
  kMigrate,          ///< migration requests enacted from one plan
  kFlush,            ///< write-delay / preload / spin-down enactment
  kLedgerPump,       ///< mid-run telemetry pump into stream consumers
  kPeriodEnd,        ///< one whole DoPeriodEnd (parent of the above)
  kFinalize,         ///< end-of-run accounting after the hot loop

  kCount
};

inline const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kNone: return "none";
    case Phase::kIngest: return "ingest";
    case Phase::kClassifyFinalize: return "classify_finalize";
    case Phase::kPlan: return "plan";
    case Phase::kMigrate: return "migrate";
    case Phase::kFlush: return "flush";
    case Phase::kLedgerPump: return "ledger_pump";
    case Phase::kPeriodEnd: return "period_end";
    case Phase::kFinalize: return "finalize";
    case Phase::kCount: break;
  }
  return "?";
}

/// \brief One closed wall-clock span. 32-byte trivially copyable POD so
/// per-thread buffers are flat arrays and recording is one 32-byte append
/// (the profiler's analogue of the 48-byte Event).
/// `start_ns` is relative to the owning Profiler's construction instant
/// (steady_clock), `seq` is the period correlation id and `detail` is a
/// phase-specific magnitude (batch records, queue depth, ...).
struct Span {
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint16_t phase = 0;  ///< Phase numeric value
  uint16_t pad16 = 0;
  uint32_t seq = 0;
  int64_t detail = 0;
};

static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) == 32, "Span grew past its 32-byte budget");

/// \brief The wall-clock profiler (see file header).
class Profiler {
 public:
  Profiler() : epoch_(std::chrono::steady_clock::now()) {}
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Appends one span to the calling thread's buffer (no lock once the
  /// thread is bound; the first call per thread binds under a mutex).
  void Record(const Span& span) { log_.Append(span); }

  /// Nanoseconds from this profiler's construction (its span epoch) to `t`.
  int64_t SinceEpochNs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Spans recorded so far, summed over all threads (drained or not).
  uint64_t recorded() const { return log_.recorded(); }

  /// Merges all thread buffers into one stream ordered by start time
  /// (stable: ties keep per-thread record order, so a parent span closed
  /// after its children still sorts by its earlier start and the
  /// analyzer's nesting sweep sees parents first) and empties them.
  /// Callers must ensure no Record() runs concurrently.
  std::vector<Span> Drain() { return log_.Drain(); }

 private:
  std::chrono::steady_clock::time_point epoch_;
  ThreadLog<Span, &Span::start_ns> log_;
};

/// Binds `profiler` as the calling thread's span sink; every ScopedPhase
/// on this thread records into it until rebound. Returns the previous
/// binding. Thread-local on purpose: interior phases (core/ planning
/// code) need no profiler parameter, and an un-profiled run keeps the
/// binding null so every ScopedPhase is a load + branch.
Profiler* SetThreadProfiler(Profiler* profiler);
Profiler* ThreadProfiler();

/// Correlation id stamped into Span::seq: the monitoring-period index.
/// This is the join key between the wall-clock track and the sim-time event stream.
uint32_t SetThreadCorrelation(uint32_t seq);
uint32_t ThreadCorrelation();

/// \brief RAII phase timer. Reads the thread binding once at entry; when
/// the thread is unbound (the un-profiled common case) both ends are a
/// branch and no clock is read.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase, int64_t detail = 0)
      : profiler_(ThreadProfiler()) {
    if (profiler_ == nullptr) return;
    phase_ = phase;
    detail_ = detail;
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhase() {
    if (profiler_ == nullptr) return;
    auto end = std::chrono::steady_clock::now();
    Span span;
    span.start_ns = profiler_->SinceEpochNs(start_);
    span.dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    span.phase = static_cast<uint16_t>(phase_);
    span.seq = ThreadCorrelation();
    span.detail = detail_;
    profiler_->Record(span);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Profiler* profiler_;
  Phase phase_ = Phase::kNone;
  int64_t detail_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// RAII thread binding: installs `profiler` (possibly null — an engine
/// configured without one deliberately masks any stale outer binding for
/// its scope) and restores the previous binding on exit.
class ScopedThreadProfiler {
 public:
  explicit ScopedThreadProfiler(Profiler* profiler)
      : previous_(SetThreadProfiler(profiler)) {}
  ~ScopedThreadProfiler() { SetThreadProfiler(previous_); }

  ScopedThreadProfiler(const ScopedThreadProfiler&) = delete;
  ScopedThreadProfiler& operator=(const ScopedThreadProfiler&) = delete;

 private:
  Profiler* previous_;
};

/// RAII correlation id (period index) for a scope.
class ScopedCorrelation {
 public:
  explicit ScopedCorrelation(uint32_t seq)
      : previous_(SetThreadCorrelation(seq)) {}
  ~ScopedCorrelation() { SetThreadCorrelation(previous_); }

  ScopedCorrelation(const ScopedCorrelation&) = delete;
  ScopedCorrelation& operator=(const ScopedCorrelation&) = delete;

 private:
  uint32_t previous_;
};

}  // namespace ecostore::telemetry::profile

#endif  // ECOSTORE_TELEMETRY_PROFILE_PROFILER_H_
