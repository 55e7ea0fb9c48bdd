#ifndef ECOSTORE_TELEMETRY_EVENT_H_
#define ECOSTORE_TELEMETRY_EVENT_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/sim_time.h"
#include "common/types.h"
#include "telemetry/flat_json.h"

namespace ecostore::telemetry {

/// What happened. Each event site gates on the class of what it records
/// (the kClass* bits below) with Wants(recorder, class); the recorder's
/// mask filters whole classes, so a single load + test decides whether
/// an event site pays anything at all. A kind's JSONL name and payload
/// are declared once, in kEventKinds (after Event).
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

// --- Payloads (each <= 32 bytes, trivially copyable) ---------------------
//
// Each payload is followed by its field list: the JSONL key of every
// member, in line order. The capture writer and reader walk these lists,
// so a key, its position and its type are declared here and nowhere else.
// A field marked kEnclosureId names an enclosure, and the reader rejects
// a value outside [-1, num_enclosures).

inline constexpr bool kEnclosureId = true;

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

inline constexpr RecordField<PowerPayload> kPowerFields[] = {
    {"enclosure", &PowerPayload::enclosure, kEnclosureId},
    {"state", &PowerPayload::state},
    {"spinup_us", &PowerPayload::spinup_us},
    {"joules", &PowerPayload::joules},
    {"plan", &PowerPayload::plan},
};

/// PowerPayload::state marker used by kEnergyFinal events.
inline constexpr uint8_t kFinalStateMarker = 255;

/// kIdleGap.
struct IdlePayload {
  EnclosureId enclosure = kInvalidEnclosure;
  SimDuration gap = 0;
};

inline constexpr RecordField<IdlePayload> kIdleFields[] = {
    {"enclosure", &IdlePayload::enclosure, kEnclosureId},
    {"gap_us", &IdlePayload::gap},
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

inline constexpr RecordField<CachePayload> kCacheFields[] = {
    {"item", &CachePayload::item},
    {"enclosure", &CachePayload::enclosure, kEnclosureId},
    {"blocks", &CachePayload::blocks},
    {"bytes", &CachePayload::bytes},
    {"plan", &CachePayload::plan},
};

/// kMigrationBegin / kMigrationThrottle / kMigrationEnd / kBlockMove.
/// For kMigrationEnd, bytes < 0 means the commit failed (target full).
struct MigrationPayload {
  DataItemId item = kInvalidDataItem;
  EnclosureId from = kInvalidEnclosure;
  EnclosureId to = kInvalidEnclosure;
  int64_t bytes = 0;
};

inline constexpr RecordField<MigrationPayload> kMigrationFields[] = {
    {"item", &MigrationPayload::item},
    {"from", &MigrationPayload::from, kEnclosureId},
    {"to", &MigrationPayload::to, kEnclosureId},
    {"bytes", &MigrationPayload::bytes},
};

/// Actions enacted for an item in one period plan (kDecision bitmask).
inline constexpr uint8_t kActionMigrate = 1u << 0;
inline constexpr uint8_t kActionWriteDelay = 1u << 1;
inline constexpr uint8_t kActionPreload = 1u << 2;

/// kDecision: one item's classification with the *reason* (long-interval
/// count, read ratio, I/O-sequence count; paper §IV-B) and the actions
/// the plan took. `enclosure` is where the item will live after the plan
/// (the migration target when kActionMigrate is set); it is an int16
/// display field, never an index, so the reader does not range-check it.
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

inline constexpr RecordField<DecisionPayload> kDecisionFields[] = {
    {"item", &DecisionPayload::item},
    {"pattern", &DecisionPayload::pattern},
    {"actions", &DecisionPayload::actions},
    {"enclosure", &DecisionPayload::enclosure},
    {"long_intervals", &DecisionPayload::long_intervals},
    {"io_sequences", &DecisionPayload::io_sequences},
    {"read_permille", &DecisionPayload::read_permille},
    {"plan", &DecisionPayload::plan},
    {"total_ios", &DecisionPayload::total_ios},
};

/// kHotCold: the partition of one period. Enclosures beyond 64 (none in
/// the paper's configurations) are summarised by n_hot/n_enclosures only.
struct HotColdPayload {
  uint64_t hot_mask = 0;
  int32_t n_hot = 0;
  int32_t n_enclosures = 0;
};

inline constexpr RecordField<HotColdPayload> kHotColdFields[] = {
    {"hot_mask", &HotColdPayload::hot_mask},
    {"n_hot", &HotColdPayload::n_hot},
    {"n_enclosures", &HotColdPayload::n_enclosures},
};

/// kPeriodAdapt: I_new = mean(LI) * alpha, clamped (paper §IV-H).
struct AdaptPayload {
  SimDuration prev_period = 0;
  SimDuration next_period = 0;
  SimDuration mean_long_interval = 0;
};

inline constexpr RecordField<AdaptPayload> kAdaptFields[] = {
    {"prev_period_us", &AdaptPayload::prev_period},
    {"next_period_us", &AdaptPayload::next_period},
    {"mean_long_interval_us", &AdaptPayload::mean_long_interval},
};

/// kPeriodBoundary.
struct PeriodPayload {
  int32_t index = 0;  ///< 0-based period number
  SimTime period_start = 0;
  SimDuration next_period = 0;
};

inline constexpr RecordField<PeriodPayload> kPeriodFields[] = {
    {"index", &PeriodPayload::index},
    {"period_start_us", &PeriodPayload::period_start},
    {"next_period_us", &PeriodPayload::next_period},
};

/// kSimStats: simulator queue health at a period boundary.
struct SimStatsPayload {
  int64_t peak_heap_depth = 0;
  int64_t live_events = 0;
  int64_t tombstones = 0;
  int64_t cancelled = 0;
};

inline constexpr RecordField<SimStatsPayload> kSimStatsFields[] = {
    {"peak_heap", &SimStatsPayload::peak_heap_depth},
    {"live", &SimStatsPayload::live_events},
    {"tombstones", &SimStatsPayload::tombstones},
    {"cancelled", &SimStatsPayload::cancelled},
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

// --- The kind table -------------------------------------------------------

/// Where a kind's payload sits in Event and which fields it carries.
template <typename P>
struct PayloadLayout {
  P Event::*member;
  std::span<const RecordField<P>> fields;
};

/// A kind's payload: std::monostate for kNone, which carries none.
using EventPayload =
    std::variant<std::monostate, PayloadLayout<PowerPayload>,
                 PayloadLayout<IdlePayload>, PayloadLayout<CachePayload>,
                 PayloadLayout<MigrationPayload>,
                 PayloadLayout<DecisionPayload>,
                 PayloadLayout<HotColdPayload>, PayloadLayout<AdaptPayload>,
                 PayloadLayout<PeriodPayload>,
                 PayloadLayout<SimStatsPayload>>;

struct EventKindInfo {
  const char* name;  ///< the JSONL "kind" value
  EventPayload payload;
};

inline constexpr PayloadLayout<PowerPayload> kPowerLayout{&Event::power,
                                                          kPowerFields};
inline constexpr PayloadLayout<CachePayload> kCacheLayout{&Event::cache,
                                                          kCacheFields};
inline constexpr PayloadLayout<MigrationPayload> kMigrationLayout{
    &Event::migration, kMigrationFields};

/// Every kind's name and payload, indexed by EventKind: entry k is kind
/// k, so the entries follow the enum's order.
inline constexpr EventKindInfo kEventKinds[] = {
    {"none", std::monostate{}},
    {"power_state", kPowerLayout},
    {"idle_gap", PayloadLayout<IdlePayload>{&Event::idle, kIdleFields}},
    {"cache_flush", kCacheLayout},
    {"cache_admit", kCacheLayout},
    {"write_delay_set", kCacheLayout},
    {"preload_begin", kCacheLayout},
    {"preload_done", kCacheLayout},
    {"physical_io", kCacheLayout},
    {"migration_begin", kMigrationLayout},
    {"migration_throttle", kMigrationLayout},
    {"migration_end", kMigrationLayout},
    {"block_move", kMigrationLayout},
    {"decision",
     PayloadLayout<DecisionPayload>{&Event::decision, kDecisionFields}},
    {"hot_cold",
     PayloadLayout<HotColdPayload>{&Event::hot_cold, kHotColdFields}},
    {"period_adapt", PayloadLayout<AdaptPayload>{&Event::adapt, kAdaptFields}},
    {"period_boundary",
     PayloadLayout<PeriodPayload>{&Event::period, kPeriodFields}},
    {"sim_stats",
     PayloadLayout<SimStatsPayload>{&Event::sim_stats, kSimStatsFields}},
    {"energy_final", kPowerLayout},
    {"write_delay_admit", kCacheLayout},
    {"write_delay_flush", kCacheLayout},
};
static_assert(std::size(kEventKinds) ==
                  static_cast<size_t>(EventKind::kWriteDelayFlush) + 1,
              "kEventKinds needs one entry per EventKind");

inline const char* EventKindName(EventKind kind) {
  const auto index = static_cast<size_t>(kind);
  return index < std::size(kEventKinds) ? kEventKinds[index].name : "?";
}

/// Calls fn(layout) with the PayloadLayout of `kind`; a kind without a
/// payload (kNone, or a value outside the enum) calls nothing.
template <typename Fn>
void VisitPayload(EventKind kind, Fn&& fn) {
  const auto index = static_cast<size_t>(kind);
  if (index >= std::size(kEventKinds)) return;
  std::visit(
      [&](const auto& layout) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(layout)>,
                                      std::monostate>) {
          fn(layout);
        }
      },
      kEventKinds[index].payload);
}

/// The kind named `name`, or kNone for a name no kind has.
inline EventKind EventKindFromName(std::string_view name) {
  for (size_t i = 0; i < std::size(kEventKinds); ++i) {
    if (name == kEventKinds[i].name) return static_cast<EventKind>(i);
  }
  return EventKind::kNone;
}

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
