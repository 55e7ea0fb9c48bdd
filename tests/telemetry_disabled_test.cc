// Compile-out verification: built with ECOSTORE_TELEMETRY_DISABLED and
// deliberately linked WITHOUT the ecostore libraries — the disabled
// recorder must be a self-contained, header-only stub (if anything in it
// referenced a library symbol, this target would fail to link).

#ifndef ECOSTORE_TELEMETRY_DISABLED
#error "this test must be compiled with ECOSTORE_TELEMETRY_DISABLED"
#endif

#include <vector>

#include <gtest/gtest.h>

#include "telemetry/recorder.h"

namespace ecostore::telemetry {
namespace {

// The zero-overhead contract, checked at compile time: the stub recorder
// is an empty class (no vtable, no state) and the site guard is constant
// false, so every `if (Wants(...)) Record(...)` folds away entirely.
static_assert(sizeof(Recorder) == 1,
              "disabled Recorder must stay an empty stub");
static_assert(!Recorder::kEnabled);

TEST(TelemetryDisabledTest, WantsIsConstantFalse) {
  Recorder recorder;
  EXPECT_FALSE(Wants(nullptr, kClassAll));
  EXPECT_FALSE(Wants(&recorder, kClassAll));
  EXPECT_FALSE(Wants(&recorder, kClassPower));
}

TEST(TelemetryDisabledTest, AllOperationsAreNoOps) {
  Recorder recorder;
  recorder.Record(MakeIdleGapEvent(10, 0, 5));
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Drain().empty());
  std::vector<Event> out(3);
  recorder.DrainInto(&out);
  EXPECT_TRUE(out.empty());
}

TEST(TelemetryDisabledTest, EventsStayPodSized) {
  // The event type itself is still compiled (exporters use it), and its
  // layout contract is identical in both modes.
  static_assert(sizeof(Event) == 48);
  Event e = MakePowerEvent(5, 1, 2, 0);
  EXPECT_EQ(e.power.enclosure, 1);
}

}  // namespace
}  // namespace ecostore::telemetry
