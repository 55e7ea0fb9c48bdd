#ifndef ECOSTORE_TELEMETRY_EVENT_H_
#define ECOSTORE_TELEMETRY_EVENT_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/sim_time.h"
#include "common/types.h"

namespace ecostore::telemetry {

/// What happened. Every kind belongs to exactly one EventClass (below);
/// the recorder's mask filters whole classes, so a single load +
/// test decides whether an event site pays anything at all.
enum class EventKind : uint16_t {
  kNone = 0,

  // --- storage/ -------------------------------------------------------
  kPowerState,     ///< enclosure entered SpinningUp / On / Off
  kIdleGap,        ///< an enclosure idle interval ended
  kCacheFlush,     ///< one flush demand destaged to an enclosure
  kCacheAdmit,     ///< read-miss admission into the cache (detail class)
  kWriteDelaySet,  ///< the write-delay item set was replaced
  kPreloadBegin,   ///< bulk preload read issued for an item
  kPreloadDone,    ///< item became cache-resident (or stale)
  kPhysicalIo,     ///< one physical batch hit an enclosure (detail class)

  // --- replay/migration -----------------------------------------------
  kMigrationBegin,     ///< item copy job started
  kMigrationThrottle,  ///< chunk deferred: source/target busy (§V-A)
  kMigrationEnd,       ///< item copy finished (bytes < 0: commit failed)
  kBlockMove,          ///< DDR-style block-granular move accounted

  // --- core/ ----------------------------------------------------------
  kDecision,     ///< per-item classification + enacted actions
  kHotCold,      ///< hot/cold enclosure partition of one period
  kPeriodAdapt,  ///< monitoring-period adaptation I_new (§IV-H)

  // --- replay/ / sim/ -------------------------------------------------
  kPeriodBoundary,  ///< one monitoring period ended
  kSimStats,        ///< simulator heap/cancellation snapshot

  // --- storage/ (end-of-run accounting) --------------------------------
  kEnergyFinal,  ///< cumulative joules of one component at run end

  // --- storage/ (per-item write-delay attribution; DESIGN.md §10) -------
  // Appended after kEnergyFinal so existing numeric kind values stay
  // stable for captures recorded before these existed.
  kWriteDelayAdmit,  ///< one item entered the write-delay set
  kWriteDelayFlush,  ///< one item left the set; its dirty blocks destaged
};

inline const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kPowerState: return "power_state";
    case EventKind::kIdleGap: return "idle_gap";
    case EventKind::kCacheFlush: return "cache_flush";
    case EventKind::kCacheAdmit: return "cache_admit";
    case EventKind::kWriteDelaySet: return "write_delay_set";
    case EventKind::kPreloadBegin: return "preload_begin";
    case EventKind::kPreloadDone: return "preload_done";
    case EventKind::kPhysicalIo: return "physical_io";
    case EventKind::kMigrationBegin: return "migration_begin";
    case EventKind::kMigrationThrottle: return "migration_throttle";
    case EventKind::kMigrationEnd: return "migration_end";
    case EventKind::kBlockMove: return "block_move";
    case EventKind::kDecision: return "decision";
    case EventKind::kHotCold: return "hot_cold";
    case EventKind::kPeriodAdapt: return "period_adapt";
    case EventKind::kPeriodBoundary: return "period_boundary";
    case EventKind::kSimStats: return "sim_stats";
    case EventKind::kEnergyFinal: return "energy_final";
    case EventKind::kWriteDelayAdmit: return "write_delay_admit";
    case EventKind::kWriteDelayFlush: return "write_delay_flush";
  }
  return "?";
}

/// Runtime filter classes (bitmask). The default mask records everything
/// except the per-I/O detail classes, which would multiply the event
/// volume by the logical I/O count and blow the <2% overhead budget.
inline constexpr uint32_t kClassPower = 1u << 0;
inline constexpr uint32_t kClassCache = 1u << 1;
inline constexpr uint32_t kClassMigration = 1u << 2;
inline constexpr uint32_t kClassDecision = 1u << 3;
inline constexpr uint32_t kClassPeriod = 1u << 4;
inline constexpr uint32_t kClassSim = 1u << 5;
inline constexpr uint32_t kClassIoDetail = 1u << 6;
inline constexpr uint32_t kClassDefault =
    kClassPower | kClassCache | kClassMigration | kClassDecision |
    kClassPeriod | kClassSim;
inline constexpr uint32_t kClassAll = kClassDefault | kClassIoDetail;

inline uint32_t EventClassOf(EventKind kind) {
  switch (kind) {
    case EventKind::kNone: return 0;
    case EventKind::kPowerState:
    case EventKind::kIdleGap:
    case EventKind::kEnergyFinal: return kClassPower;
    case EventKind::kCacheFlush:
    case EventKind::kWriteDelaySet:
    case EventKind::kWriteDelayAdmit:
    case EventKind::kWriteDelayFlush:
    case EventKind::kPreloadBegin:
    case EventKind::kPreloadDone: return kClassCache;
    case EventKind::kCacheAdmit:
    case EventKind::kPhysicalIo: return kClassIoDetail;
    case EventKind::kMigrationBegin:
    case EventKind::kMigrationThrottle:
    case EventKind::kMigrationEnd:
    case EventKind::kBlockMove: return kClassMigration;
    case EventKind::kDecision:
    case EventKind::kHotCold:
    case EventKind::kPeriodAdapt: return kClassDecision;
    case EventKind::kPeriodBoundary: return kClassPeriod;
    case EventKind::kSimStats: return kClassSim;
  }
  return 0;
}

// --- Payloads (each <= 32 bytes, trivially copyable) ---------------------

/// kPowerState / kEnergyFinal. `state` mirrors storage::PowerState's
/// numeric values (0 Off, 1 SpinningUp, 2 On). A SpinningUp event carries
/// the configured spin-up latency so exporters can derive the
/// SpinningUp -> On edge without instrumenting the enclosure FSM itself.
/// `joules` is the component's *cumulative* energy counter at the event
/// instant (the energy ledger telescopes these deltas, so its total
/// reconciles exactly with ExperimentMetrics). `plan` tags the
/// power-management plan epoch in force (0 before the first plan).
/// kEnergyFinal reuses this payload with state == kFinalStateMarker;
/// enclosure == -1 reports the controller's constant draw.
struct PowerPayload {
  EnclosureId enclosure = kInvalidEnclosure;
  uint8_t state = 0;
  SimDuration spinup_us = 0;
  double joules = 0.0;
  int32_t plan = 0;
};

/// PowerPayload::state marker used by kEnergyFinal events.
inline constexpr uint8_t kFinalStateMarker = 255;

/// kIdleGap.
struct IdlePayload {
  EnclosureId enclosure = kInvalidEnclosure;
  SimDuration gap = 0;
};

/// kCacheFlush / kCacheAdmit / kWriteDelaySet / kPreloadBegin /
/// kPreloadDone / kPhysicalIo. Fields that do not apply are -1/0.
/// `plan` tags the plan epoch whose cache assignment caused the action.
struct CachePayload {
  DataItemId item = kInvalidDataItem;
  EnclosureId enclosure = kInvalidEnclosure;
  int64_t blocks = 0;
  int64_t bytes = 0;
  int32_t plan = 0;
};

/// kMigrationBegin / kMigrationThrottle / kMigrationEnd / kBlockMove.
/// For kMigrationEnd, bytes < 0 means the commit failed (target full).
struct MigrationPayload {
  DataItemId item = kInvalidDataItem;
  EnclosureId from = kInvalidEnclosure;
  EnclosureId to = kInvalidEnclosure;
  int64_t bytes = 0;
};

/// Actions enacted for an item in one period plan (kDecision bitmask).
inline constexpr uint8_t kActionMigrate = 1u << 0;
inline constexpr uint8_t kActionWriteDelay = 1u << 1;
inline constexpr uint8_t kActionPreload = 1u << 2;

/// kDecision: one item's classification with the *reason* (long-interval
/// count, read ratio, I/O-sequence count; paper §IV-B) and the actions
/// the plan took. `enclosure` is where the item will live after the plan
/// (the migration target when kActionMigrate is set).
struct DecisionPayload {
  DataItemId item = kInvalidDataItem;
  uint8_t pattern = 0;  ///< core::IoPattern numeric value (P0..P3)
  uint8_t actions = 0;
  int16_t enclosure = -1;
  int32_t long_intervals = 0;
  int32_t io_sequences = 0;
  int32_t read_permille = 0;  ///< reads * 1000 / total_ios
  int32_t plan = 0;           ///< plan epoch that emitted this decision
  int64_t total_ios = 0;
};

/// kHotCold: the partition of one period. Enclosures beyond 64 (none in
/// the paper's configurations) are summarised by n_hot/n_enclosures only.
struct HotColdPayload {
  uint64_t hot_mask = 0;
  int32_t n_hot = 0;
  int32_t n_enclosures = 0;
};

/// kPeriodAdapt: I_new = mean(LI) * alpha, clamped (paper §IV-H).
struct AdaptPayload {
  SimDuration prev_period = 0;
  SimDuration next_period = 0;
  SimDuration mean_long_interval = 0;
};

/// kPeriodBoundary.
struct PeriodPayload {
  int32_t index = 0;  ///< 0-based period number
  SimTime period_start = 0;
  SimDuration next_period = 0;
};

/// kSimStats: simulator queue health at a period boundary.
struct SimStatsPayload {
  int64_t peak_heap_depth = 0;
  int64_t live_events = 0;
  int64_t tombstones = 0;
  int64_t cancelled = 0;
};

/// \brief One fixed-size, simulated-time-stamped telemetry event. 48-byte
/// trivially copyable POD so per-thread buffers are flat memcpy-able
/// arrays and recording is one 48-byte append.
struct Event {
  SimTime time = 0;
  EventKind kind = EventKind::kNone;
  uint16_t pad16 = 0;
  uint32_t pad32 = 0;
  union {
    PowerPayload power;
    IdlePayload idle;
    CachePayload cache;
    MigrationPayload migration;
    DecisionPayload decision;
    HotColdPayload hot_cold;
    AdaptPayload adapt;
    PeriodPayload period;
    SimStatsPayload sim_stats;
  };

  Event() : power() {}
};

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) == 48, "Event grew past its 48-byte budget");
static_assert(sizeof(PowerPayload) <= 32);
static_assert(sizeof(CachePayload) <= 32);
static_assert(sizeof(MigrationPayload) <= 32);
static_assert(sizeof(DecisionPayload) <= 32);
static_assert(sizeof(HotColdPayload) <= 32);
static_assert(sizeof(AdaptPayload) <= 32);
static_assert(sizeof(PeriodPayload) <= 32);
static_assert(sizeof(SimStatsPayload) <= 32);

// --- Constructors for the instrumented sites -----------------------------

inline Event MakeEvent(SimTime time, EventKind kind) {
  Event e;
  e.time = time;
  e.kind = kind;
  return e;
}

inline Event MakePowerEvent(SimTime time, EnclosureId enclosure,
                            uint8_t state, SimDuration spinup_us,
                            double joules = 0.0, int32_t plan = 0) {
  Event e = MakeEvent(time, EventKind::kPowerState);
  e.power = PowerPayload{enclosure, state, spinup_us, joules, plan};
  return e;
}

/// End-of-run cumulative energy of one component: an enclosure, or the
/// controller when `enclosure` is kInvalidEnclosure (-1).
inline Event MakeEnergyFinalEvent(SimTime time, EnclosureId enclosure,
                                  double joules, int32_t plan = 0) {
  Event e = MakeEvent(time, EventKind::kEnergyFinal);
  e.power = PowerPayload{enclosure, kFinalStateMarker, 0, joules, plan};
  return e;
}

inline Event MakeIdleGapEvent(SimTime time, EnclosureId enclosure,
                              SimDuration gap) {
  Event e = MakeEvent(time, EventKind::kIdleGap);
  e.idle = IdlePayload{enclosure, gap};
  return e;
}

inline Event MakeCacheEvent(SimTime time, EventKind kind, DataItemId item,
                            EnclosureId enclosure, int64_t blocks,
                            int64_t bytes, int32_t plan = 0) {
  Event e = MakeEvent(time, kind);
  e.cache = CachePayload{item, enclosure, blocks, bytes, plan};
  return e;
}

inline Event MakeMigrationEvent(SimTime time, EventKind kind, DataItemId item,
                                EnclosureId from, EnclosureId to,
                                int64_t bytes) {
  Event e = MakeEvent(time, kind);
  e.migration = MigrationPayload{item, from, to, bytes};
  return e;
}

inline Event MakeDecisionEvent(SimTime time, const DecisionPayload& payload) {
  Event e = MakeEvent(time, EventKind::kDecision);
  e.decision = payload;
  return e;
}

inline Event MakeHotColdEvent(SimTime time, uint64_t hot_mask, int32_t n_hot,
                              int32_t n_enclosures) {
  Event e = MakeEvent(time, EventKind::kHotCold);
  e.hot_cold = HotColdPayload{hot_mask, n_hot, n_enclosures};
  return e;
}

inline Event MakeAdaptEvent(SimTime time, SimDuration prev_period,
                            SimDuration next_period,
                            SimDuration mean_long_interval) {
  Event e = MakeEvent(time, EventKind::kPeriodAdapt);
  e.adapt = AdaptPayload{prev_period, next_period, mean_long_interval};
  return e;
}

inline Event MakePeriodEvent(SimTime time, int32_t index,
                             SimTime period_start, SimDuration next_period) {
  Event e = MakeEvent(time, EventKind::kPeriodBoundary);
  e.period = PeriodPayload{index, period_start, next_period};
  return e;
}

inline Event MakeSimStatsEvent(SimTime time, int64_t peak_heap_depth,
                               int64_t live_events, int64_t tombstones,
                               int64_t cancelled) {
  Event e = MakeEvent(time, EventKind::kSimStats);
  e.sim_stats =
      SimStatsPayload{peak_heap_depth, live_events, tombstones, cancelled};
  return e;
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_EVENT_H_
