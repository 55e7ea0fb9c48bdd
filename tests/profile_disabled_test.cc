// Compile-out verification for the wall-clock profiler: built with
// ECOSTORE_PROFILE_DISABLED and deliberately linked WITHOUT the ecostore
// libraries — the disabled profiler must be a self-contained, header-only
// stub (if anything in it referenced a library symbol, this target would
// fail to link).

#ifndef ECOSTORE_PROFILE_DISABLED
#error "this test must be compiled with ECOSTORE_PROFILE_DISABLED"
#endif

#include <gtest/gtest.h>

#include "telemetry/profile/profiler.h"

namespace ecostore::telemetry::profile {
namespace {

// The zero-overhead contract, checked at compile time: the stub profiler
// is an empty class and every ScopedPhase site folds away entirely.
static_assert(sizeof(Profiler) == 1,
              "disabled Profiler must stay an empty stub");
static_assert(!Profiler::kEnabled);

TEST(ProfileDisabledTest, AllOperationsAreNoOps) {
  Profiler profiler;
  Span span;
  span.start_ns = 10;
  span.dur_ns = 5;
  profiler.Record(span);
  EXPECT_EQ(profiler.recorded(), 0u);
  EXPECT_EQ(profiler.dropped(), 0u);
  EXPECT_TRUE(profiler.Drain().empty());
  EXPECT_EQ(profiler.NowNs(), 0);
}

TEST(ProfileDisabledTest, BindingsAndScopesAreInert) {
  Profiler profiler;
  ScopedThreadProfiler bind(&profiler);
  ScopedCorrelation corr(7);
  EXPECT_EQ(ThreadProfiler(), nullptr);
  EXPECT_EQ(ThreadCorrelation(), 0u);
  { ScopedPhase phase(Phase::kPlan, 42); }
  EXPECT_EQ(profiler.recorded(), 0u);
}

TEST(ProfileDisabledTest, SpanStaysPodSized) {
  // The span type itself is still compiled (exporters and eco_report use
  // it), and its layout contract is identical in both modes.
  static_assert(sizeof(Span) == 32);
  Span s;
  s.phase = static_cast<uint16_t>(Phase::kFinalize);
  EXPECT_STREQ(PhaseName(static_cast<Phase>(s.phase)), "finalize");
}

}  // namespace
}  // namespace ecostore::telemetry::profile
