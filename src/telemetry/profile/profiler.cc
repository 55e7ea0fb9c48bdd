#include "telemetry/profile/profiler.h"

namespace ecostore::telemetry::profile {

namespace {

/// The thread's active span sink and correlation id. Both are
/// thread-local rather than per-profiler so interior phases (core/
/// planning code) need no plumbing: a ScopedPhase reads them directly.
thread_local Profiler* t_profiler = nullptr;
thread_local uint32_t t_seq = 0;

}  // namespace

Profiler* SetThreadProfiler(Profiler* profiler) {
  Profiler* previous = t_profiler;
  t_profiler = profiler;
  return previous;
}

Profiler* ThreadProfiler() { return t_profiler; }

uint32_t SetThreadCorrelation(uint32_t seq) {
  uint32_t previous = t_seq;
  t_seq = seq;
  return previous;
}

uint32_t ThreadCorrelation() { return t_seq; }

Profiler::~Profiler() {
  // Unbind the calling thread if it records into us; a binding on
  // *another* thread is the caller's lifetime bug (writers must not
  // outlive the profiler), same contract as Drain().
  if (t_profiler == this) t_profiler = nullptr;
}

}  // namespace ecostore::telemetry::profile
