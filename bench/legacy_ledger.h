#ifndef ECOSTORE_BENCH_LEGACY_LEDGER_H_
#define ECOSTORE_BENCH_LEGACY_LEDGER_H_

// The batch energy ledger as it stood before BuildLedger became a fold
// over IncrementalEnergyLedger (DESIGN.md §14), kept verbatim (modulo
// inline/namespace) as the differential oracle for
// tests/streaming_ledger_test.cc. It differs from the current ledger
// only where the current one was deliberately simplified, neither of
// which an engine capture reaches:
//
//  - it pre-scans kPowerState events to grow the per-enclosure table past
//    meta.num_enclosures (parsed captures now reject such ids);
//  - when a stream has kWriteDelaySet events but no kWriteDelayAdmit, it
//    falls back to one enclosure-less advisory kWriteDelay entry per set
//    update (credit and debit always 0), flagged by per_item_write_delay.
//
// Do NOT evolve this copy: it pins the original ledger's arithmetic.

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "telemetry/analysis/energy_ledger.h"
#include "telemetry/export.h"

namespace ecostore::legacy {

using telemetry::DecisionPayload;
using telemetry::Event;
using telemetry::EventKind;
using telemetry::ExportMeta;
using telemetry::analysis::AdvisoryEntry;
using telemetry::analysis::OffWindow;
using telemetry::analysis::WakeCause;

struct EnergyLedger {
  std::vector<OffWindow> off_windows;
  std::vector<AdvisoryEntry> advisory;

  // Exact off-window account.
  double off_credit_j = 0.0;
  double off_debit_j = 0.0;
  double off_actual_j = 0.0;
  SimDuration off_dwell_us = 0;
  int64_t mispredicts = 0;
  double mispredict_loss_j = 0.0;  ///< sum of (debit - credit) over them

  // Advisory account (model estimates, not reconciled).
  double advisory_credit_j = 0.0;
  double advisory_debit_j = 0.0;

  // Reconciliation against the run's measured energy: the kEnergyFinal
  // counters must telescope to meta.enclosure_energy_j +
  // meta.controller_energy_j. has_finals is false for captures from
  // builds that predate kEnergyFinal (reconciliation then untestable).
  bool has_finals = false;
  double ledger_enclosure_j = 0.0;
  double ledger_controller_j = 0.0;
  double reconcile_rel_err = 0.0;

  // Stream tallies used by the summary.
  int64_t plans = 0;
  int64_t decisions = 0;
  int64_t migrations = 0;
  int64_t preloads = 0;
  int64_t write_delays = 0;

  // Per-item write-delay attribution (DESIGN.md §10). True when the
  // capture carries kWriteDelayAdmit/kWriteDelayFlush membership deltas;
  // advisory kWriteDelay entries are then per item with a real enclosure
  // (so the avoided-spin-up credit model applies). Captures from builds
  // that only emitted the set-level kWriteDelaySet aggregate fall back to
  // one enclosure-less advisory entry per set update.
  bool per_item_write_delay = false;
  int64_t write_delay_admits = 0;
  int64_t write_delay_flushes = 0;
  int64_t write_delay_flush_bytes = 0;
};

/// Per-enclosure walker state for the off-window pass.
struct EncState {
  bool off = false;
  SimTime off_since = 0;
  double off_joules = 0.0;
  int32_t off_plan = 0;
  int active_migrations = 0;
  bool has_final = false;
  double final_j = 0.0;
};

inline EnergyLedger BuildLedger(const ExportMeta& meta,
                                const std::vector<Event>& events) {
  EnergyLedger ledger;
  const double idle_w = meta.idle_power_w;
  const double spin_extra_j =
      (meta.spinup_power_w - meta.idle_power_w) * ToSeconds(meta.spinup_time_us);

  int n = meta.num_enclosures;
  for (const Event& e : events) {
    if (e.kind == EventKind::kPowerState && e.power.enclosure >= n) {
      n = e.power.enclosure + 1;
    }
  }
  std::vector<EncState> enc(static_cast<size_t>(std::max(n, 0)));
  bool controller_final = false;
  double controller_j = 0.0;

  // Plan epoch start times (first decision event carrying the plan id);
  // used to bound the advisory occupancy windows.
  std::map<int32_t, SimTime> plan_start;
  std::unordered_map<DataItemId, DecisionPayload> last_decision;
  // Advisory raw material, resolved after all off windows are known.
  struct PendingCache {
    AdvisoryEntry::Kind kind;
    DataItemId item;
    EnclosureId enclosure;
    SimTime time;
    int32_t plan;
    int64_t bytes;
  };
  std::vector<PendingCache> pending;
  /// Set-level kWriteDelaySet entries, used only when the capture has no
  /// per-item membership deltas (legacy fallback, DESIGN.md §10).
  std::vector<PendingCache> legacy_wd;
  std::map<int32_t, SimTime> first_wd_in_plan;

  // Looks around index i for same-timestamp events that identify why an
  // enclosure woke up (flush / preload destaging beats an active
  // migration beats a plain demand miss), and for the kPhysicalIo detail
  // event naming the item whose I/O forced the wake.
  auto probe_wake = [&](size_t i, EnclosureId enclosure, WakeCause* cause,
                        DataItemId* item) {
    const SimTime t = events[i].time;
    *cause = enc[static_cast<size_t>(enclosure)].active_migrations > 0
                 ? WakeCause::kMigration
                 : WakeCause::kDemand;
    *item = kInvalidDataItem;
    auto inspect = [&](const Event& e) {
      if (e.kind == EventKind::kCacheFlush &&
          e.cache.enclosure == enclosure) {
        *cause = WakeCause::kFlush;
      } else if (e.kind == EventKind::kPreloadBegin &&
                 e.cache.enclosure == enclosure &&
                 *cause != WakeCause::kFlush) {
        *cause = WakeCause::kPreload;
      } else if (e.kind == EventKind::kPhysicalIo &&
                 e.cache.enclosure == enclosure &&
                 *item == kInvalidDataItem) {
        *item = e.cache.item;
      }
    };
    for (size_t j = i; j-- > 0 && events[j].time == t;) inspect(events[j]);
    for (size_t j = i + 1; j < events.size() && events[j].time == t; ++j) {
      inspect(events[j]);
    }
  };

  auto close_window = [&](EnclosureId enclosure, SimTime end, double joules,
                          WakeCause cause, DataItemId wake_item,
                          bool terminal) {
    EncState& s = enc[static_cast<size_t>(enclosure)];
    OffWindow w;
    w.enclosure = enclosure;
    w.start = s.off_since;
    w.end = end;
    w.plan = s.off_plan;
    w.actual_j = joules - s.off_joules;
    const SimDuration dwell = end - s.off_since;
    w.credit_j = idle_w * ToSeconds(dwell) - w.actual_j;
    w.debit_j = terminal ? 0.0 : spin_extra_j;
    w.wake = cause;
    w.wake_item = wake_item;
    w.mispredict = !terminal && dwell < meta.break_even_us;
    if (wake_item != kInvalidDataItem) {
      auto it = last_decision.find(wake_item);
      if (it != last_decision.end()) {
        w.has_culprit = true;
        w.culprit = it->second;
      }
    }
    ledger.off_credit_j += w.credit_j;
    ledger.off_debit_j += w.debit_j;
    ledger.off_actual_j += w.actual_j;
    ledger.off_dwell_us += dwell;
    if (w.mispredict) {
      ledger.mispredicts++;
      ledger.mispredict_loss_j += w.debit_j - w.credit_j;
    }
    ledger.off_windows.push_back(w);
    s.off = false;
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    switch (e.kind) {
      case EventKind::kPowerState: {
        if (e.power.enclosure < 0 || e.power.enclosure >= n) break;
        EncState& s = enc[static_cast<size_t>(e.power.enclosure)];
        if (e.power.state == 0) {  // Off
          s.off = true;
          s.off_since = e.time;
          s.off_joules = e.power.joules;
          s.off_plan = e.power.plan;
        } else if (e.power.state == 1 && s.off) {  // SpinningUp
          WakeCause cause;
          DataItemId item;
          probe_wake(i, e.power.enclosure, &cause, &item);
          close_window(e.power.enclosure, e.time, e.power.joules, cause,
                       item, /*terminal=*/false);
        }
        break;
      }
      case EventKind::kEnergyFinal: {
        if (e.power.enclosure == kInvalidEnclosure) {
          controller_final = true;
          controller_j = e.power.joules;
          break;
        }
        if (e.power.enclosure < 0 || e.power.enclosure >= n) break;
        EncState& s = enc[static_cast<size_t>(e.power.enclosure)];
        if (s.off) {
          close_window(e.power.enclosure, e.time, e.power.joules,
                       WakeCause::kRunEnd, kInvalidDataItem,
                       /*terminal=*/true);
        }
        s.has_final = true;
        s.final_j = e.power.joules;
        break;
      }
      case EventKind::kMigrationBegin:
      case EventKind::kMigrationEnd: {
        const int delta = e.kind == EventKind::kMigrationBegin ? 1 : -1;
        for (EnclosureId enclosure : {e.migration.from, e.migration.to}) {
          if (enclosure >= 0 && enclosure < n) {
            int& c = enc[static_cast<size_t>(enclosure)].active_migrations;
            c = std::max(0, c + delta);
          }
        }
        if (e.kind == EventKind::kMigrationEnd && e.migration.bytes >= 0) {
          ledger.migrations++;
        }
        break;
      }
      case EventKind::kDecision: {
        ledger.decisions++;
        last_decision[e.decision.item] = e.decision;
        const int32_t plan = e.decision.plan;
        auto [it, inserted] = plan_start.emplace(plan, e.time);
        if (!inserted) it->second = std::min(it->second, e.time);
        break;
      }
      case EventKind::kPreloadBegin:
        ledger.preloads++;
        pending.push_back(PendingCache{AdvisoryEntry::Kind::kPreload,
                                       e.cache.item, e.cache.enclosure,
                                       e.time, e.cache.plan, e.cache.bytes});
        break;
      case EventKind::kWriteDelaySet: {
        ledger.write_delays++;
        legacy_wd.push_back(PendingCache{AdvisoryEntry::Kind::kWriteDelay,
                                         e.cache.item, e.cache.enclosure,
                                         e.time, e.cache.plan,
                                         e.cache.bytes});
        auto [it, inserted] = first_wd_in_plan.emplace(e.cache.plan, e.time);
        if (!inserted) it->second = std::min(it->second, e.time);
        break;
      }
      case EventKind::kWriteDelayAdmit: {
        ledger.write_delay_admits++;
        pending.push_back(PendingCache{AdvisoryEntry::Kind::kWriteDelay,
                                       e.cache.item, e.cache.enclosure,
                                       e.time, e.cache.plan, e.cache.bytes});
        auto [it, inserted] = first_wd_in_plan.emplace(e.cache.plan, e.time);
        if (!inserted) it->second = std::min(it->second, e.time);
        break;
      }
      case EventKind::kWriteDelayFlush: {
        ledger.write_delay_flushes++;
        ledger.write_delay_flush_bytes += e.cache.bytes;
        break;
      }
      default:
        break;
    }
  }
  ledger.plans =
      plan_start.empty() ? 0 : static_cast<int64_t>(plan_start.rbegin()->first);

  // Per-item write-delay attribution when the capture carries membership
  // deltas; otherwise keep the old set-level advisory entries.
  ledger.per_item_write_delay = ledger.write_delay_admits > 0;
  if (!ledger.per_item_write_delay) {
    pending.insert(pending.end(), legacy_wd.begin(), legacy_wd.end());
  }

  // Reconciliation: the per-component cumulative counters at the horizon
  // must telescope to the run's measured totals. %.17g round-trips, so a
  // capture/parse cycle keeps this exact.
  bool all_finals = controller_final && n > 0;
  double sum_final = 0.0;
  for (const EncState& s : enc) {
    all_finals = all_finals && s.has_final;
    sum_final += s.final_j;
  }
  ledger.has_finals = all_finals;
  if (all_finals) {
    ledger.ledger_enclosure_j = sum_final;
    ledger.ledger_controller_j = controller_j;
    const double measured = meta.enclosure_energy_j + meta.controller_energy_j;
    const double accounted = sum_final + controller_j;
    const double denom = std::max(std::fabs(measured), 1e-12);
    ledger.reconcile_rel_err = std::fabs(accounted - measured) / denom;
  }

  // Advisory resolution (documented model; excluded from reconciliation).
  auto plan_end = [&](int32_t plan) -> SimTime {
    auto it = plan_start.upper_bound(plan);
    return it != plan_start.end() ? it->second : meta.duration;
  };
  auto off_windows_after = [&](EnclosureId enclosure, SimTime from,
                               SimTime until) {
    int64_t count = 0;
    for (const OffWindow& w : ledger.off_windows) {
      if (w.enclosure == enclosure && w.start >= from && w.start < until) {
        count++;
      }
    }
    return count;
  };
  const double cache_bytes =
      std::max<double>(1.0, static_cast<double>(meta.cache_total_bytes));
  for (const PendingCache& p : pending) {
    AdvisoryEntry a;
    a.kind = p.kind;
    a.item = p.item;
    a.enclosure = p.enclosure;
    a.time = p.time;
    a.plan = p.plan;
    const SimTime end = std::max(plan_end(p.plan), p.time);
    const int64_t later_off = off_windows_after(p.enclosure, p.time, end);
    // Credit at most one avoided spin-up per entry, and only when the
    // enclosure actually went off later in the plan (otherwise holding
    // the data in cache avoided nothing).
    a.credit_j = later_off > 0 ? spin_extra_j : 0.0;
    if (p.kind == AdvisoryEntry::Kind::kPreload) {
      a.debit_j = meta.controller_power_w *
                  (static_cast<double>(p.bytes) / cache_bytes) *
                  ToSeconds(end - p.time);
    }
    ledger.advisory_credit_j += a.credit_j;
    ledger.advisory_debit_j += a.debit_j;
    ledger.advisory.push_back(a);
  }
  // Write-delay occupancy: one debit per plan for the reserved area, not
  // per item (the area is shared by the plan's whole write-delay set).
  for (const auto& [plan, first_t] : first_wd_in_plan) {
    AdvisoryEntry a;
    a.kind = AdvisoryEntry::Kind::kWriteDelayOccupancy;
    a.time = first_t;
    a.plan = plan;
    const SimTime end = std::max(plan_end(plan), first_t);
    a.debit_j = meta.controller_power_w *
                (static_cast<double>(meta.write_delay_area_bytes) /
                 cache_bytes) *
                ToSeconds(end - first_t);
    ledger.advisory_debit_j += a.debit_j;
    ledger.advisory.push_back(a);
  }
  return ledger;
}

}  // namespace ecostore::legacy

#endif  // ECOSTORE_BENCH_LEGACY_LEDGER_H_
