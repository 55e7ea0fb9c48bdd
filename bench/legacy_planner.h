#ifndef ECOSTORE_BENCH_LEGACY_PLANNER_H_
#define ECOSTORE_BENCH_LEGACY_PLANNER_H_

// The pre-fleet-scale planners, kept verbatim (modulo inline/namespace)
// as the in-run regression reference — the same pattern as
// bench/legacy_cache.h and bench/legacy_classifier.h. These are
// the stable_sort-based Algorithm 2/3 implementations: find_cold_target
// re-sorts the whole cold list per candidate move, the hot list is
// re-sorted per P3 item, make_space rescans the full catalog, and the
// cache planner fully sorts its candidate lists. The indexed planners in
// src/core must produce bit-identical plans (see
// tests/planner_differential_test.cc and the planner_scale entry of
// BENCH_perf.json).
//
// The one deliberate divergence from the seed code: make_space rolls its
// partial evictions back when it fails (the current planner does too) —
// the seed version left the stray moves in `evictions` and in the
// working state even though the target hot enclosure was abandoned.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cache_planner.h"
#include "core/hot_cold_planner.h"
#include "core/pattern_classifier.h"
#include "core/placement_planner.h"
#include "storage/block_virtualization.h"

namespace ecostore::legacy {

/// The stable_sort HotColdPlanner (paper §IV-C Steps 1-3).
class LegacyHotColdPlanner {
 public:
  using Options = core::HotColdPlanner::Options;

  explicit LegacyHotColdPlanner(const Options& options) : options_(options) {}

  core::HotColdPartition Plan(const core::ClassificationResult& classification,
                              const storage::BlockVirtualization& virt,
                              int min_n_hot = 0) const {
    int n = virt.num_enclosures();
    core::HotColdPartition partition;
    partition.is_hot.assign(static_cast<size_t>(n), false);

    std::vector<int64_t> p3_bytes(static_cast<size_t>(n), 0);
    int64_t p3_total_bytes = 0;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern != core::IoPattern::kP3) continue;
      EnclosureId enc = virt.EnclosureOf(cls.item);
      p3_bytes[static_cast<size_t>(enc)] += cls.size_bytes;
      p3_total_bytes += cls.size_bytes;
    }

    int by_iops = static_cast<int>(
        std::ceil(classification.p3_max_iops / options_.max_enclosure_iops));
    int by_size =
        options_.enclosure_capacity > 0
            ? static_cast<int>(std::ceil(
                  static_cast<double>(p3_total_bytes) /
                  static_cast<double>(options_.enclosure_capacity)))
            : 0;
    int n_hot = std::max({by_iops, by_size, min_n_hot});
    n_hot = std::min(n_hot, n);
    partition.n_hot = n_hot;

    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return p3_bytes[static_cast<size_t>(a)] >
             p3_bytes[static_cast<size_t>(b)];
    });
    for (int i = 0; i < n_hot; ++i) {
      partition.is_hot[static_cast<size_t>(order[static_cast<size_t>(i)])] =
          true;
    }
    return partition;
  }

 private:
  Options options_;
};

/// The per-item-re-sorting PlacementPlanner (paper Algorithms 2+3).
class LegacyPlacementPlanner {
 public:
  using Options = core::PlacementPlanner::Options;

  LegacyPlacementPlanner(const Options& options,
                         const LegacyHotColdPlanner* hot_cold)
      : options_(options), hot_cold_(hot_cold) {}

  core::PlacementPlan Plan(const core::ClassificationResult& classification,
                           const storage::BlockVirtualization& virt) const {
    int n = virt.num_enclosures();
    core::PlacementPlan plan;
    int min_hot = 0;
    while (true) {
      plan.partition = hot_cold_->Plan(classification, virt, min_hot);
      if (plan.partition.n_hot >= n) {
        plan.migrations.clear();
        return plan;
      }
      std::vector<core::Migration> evictions;
      std::vector<core::Migration> p3_moves;
      if (TryPlace(classification, virt, plan.partition, &evictions,
                   &p3_moves)) {
        plan.migrations = std::move(evictions);
        plan.migrations.insert(plan.migrations.end(), p3_moves.begin(),
                               p3_moves.end());
        return plan;
      }
      min_hot = plan.partition.n_hot + 1;
    }
  }

 private:
  struct WorkingState {
    std::vector<double> iops;
    std::vector<int64_t> used;
    std::vector<EnclosureId> where;

    void ApplyMove(const core::ItemClassification& cls, EnclosureId to) {
      EnclosureId from = where[static_cast<size_t>(cls.item)];
      iops[static_cast<size_t>(from)] -= cls.avg_iops;
      used[static_cast<size_t>(from)] -= cls.size_bytes;
      iops[static_cast<size_t>(to)] += cls.avg_iops;
      used[static_cast<size_t>(to)] += cls.size_bytes;
      where[static_cast<size_t>(cls.item)] = to;
    }
  };

  bool TryPlace(const core::ClassificationResult& classification,
                const storage::BlockVirtualization& virt,
                const core::HotColdPartition& partition,
                std::vector<core::Migration>* evictions,
                std::vector<core::Migration>* p3_moves) const {
    const double kO = options_.max_enclosure_iops;
    const int64_t kS = options_.enclosure_capacity > 0
                           ? options_.enclosure_capacity
                           : virt.capacity_bytes();
    int n = virt.num_enclosures();

    WorkingState state;
    state.iops.assign(static_cast<size_t>(n), 0.0);
    state.used.assign(static_cast<size_t>(n), 0);
    state.where.resize(classification.items.size());
    for (const core::ItemClassification& cls : classification.items) {
      EnclosureId enc = virt.EnclosureOf(cls.item);
      state.where[static_cast<size_t>(cls.item)] = enc;
      state.iops[static_cast<size_t>(enc)] += cls.avg_iops;
      state.used[static_cast<size_t>(enc)] += cls.size_bytes;
    }

    std::vector<EnclosureId> hot;
    std::vector<EnclosureId> cold;
    for (int e = 0; e < n; ++e) {
      (partition.IsHot(e) ? hot : cold).push_back(e);
    }

    // Algorithm 3's target choice: the cold enclosure with the largest
    // working IOPS that satisfies both guards.
    auto find_cold_target =
        [&](const core::ItemClassification& cls) -> EnclosureId {
      std::vector<EnclosureId> order = cold;
      std::stable_sort(order.begin(), order.end(),
                       [&](EnclosureId a, EnclosureId b) {
                         return state.iops[static_cast<size_t>(a)] >
                                state.iops[static_cast<size_t>(b)];
                       });
      for (EnclosureId c : order) {
        bool fits =
            cls.size_bytes <= kS - state.used[static_cast<size_t>(c)];
        bool serves =
            state.iops[static_cast<size_t>(c)] + cls.avg_iops < kO;
        if (fits && serves) return c;
      }
      return kInvalidEnclosure;
    };

    // Algorithm 3 as a space-maker; on failure every eviction this call
    // added is rolled back (the abandoned target keeps nothing).
    auto make_space = [&](EnclosureId s, int64_t need) -> bool {
      std::vector<const core::ItemClassification*> movable;
      for (const core::ItemClassification& cls : classification.items) {
        if (state.where[static_cast<size_t>(cls.item)] == s &&
            cls.pattern != core::IoPattern::kP3 &&
            !virt.catalog().item(cls.item).pinned) {
          movable.push_back(&cls);
        }
      }
      std::stable_sort(movable.begin(), movable.end(),
                       [](const core::ItemClassification* a,
                          const core::ItemClassification* b) {
                         return a->size_bytes > b->size_bytes;
                       });
      const size_t mark = evictions->size();
      for (const core::ItemClassification* cls : movable) {
        if (kS - state.used[static_cast<size_t>(s)] >= need) break;
        EnclosureId target = find_cold_target(*cls);
        if (target == kInvalidEnclosure) continue;
        evictions->push_back(core::Migration{cls->item, s, target});
        state.ApplyMove(*cls, target);
      }
      if (kS - state.used[static_cast<size_t>(s)] >= need) return true;
      while (evictions->size() > mark) {
        const core::Migration& mig = evictions->back();
        state.ApplyMove(
            classification.items[static_cast<size_t>(mig.item)], s);
        evictions->pop_back();
      }
      return false;
    };

    // Algorithm 2: move P3 items off cold enclosures, most demanding
    // (IOPS per byte) first.
    std::vector<const core::ItemClassification*> m;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP3 &&
          !partition.IsHot(state.where[static_cast<size_t>(cls.item)]) &&
          !virt.catalog().item(cls.item).pinned) {
        m.push_back(&cls);
      }
    }
    std::stable_sort(m.begin(), m.end(),
                     [](const core::ItemClassification* a,
                        const core::ItemClassification* b) {
                       double da = a->size_bytes > 0
                                       ? a->avg_iops /
                                             static_cast<double>(a->size_bytes)
                                       : a->avg_iops;
                       double db = b->size_bytes > 0
                                       ? b->avg_iops /
                                             static_cast<double>(b->size_bytes)
                                       : b->avg_iops;
                       return da > db;
                     });

    for (const core::ItemClassification* d : m) {
      std::vector<EnclosureId> order = hot;
      std::stable_sort(order.begin(), order.end(),
                       [&](EnclosureId a, EnclosureId b) {
                         return state.iops[static_cast<size_t>(a)] <
                                state.iops[static_cast<size_t>(b)];
                       });
      bool placed = false;
      for (EnclosureId s : order) {
        if (d->avg_iops + state.iops[static_cast<size_t>(s)] >= kO) {
          return false;
        }
        if (d->size_bytes + state.used[static_cast<size_t>(s)] <= kS) {
          p3_moves->push_back(core::Migration{
              d->item, state.where[static_cast<size_t>(d->item)], s});
          state.ApplyMove(*d, s);
          placed = true;
          break;
        }
      }
      if (!placed) {
        for (EnclosureId s : order) {
          int64_t need =
              d->size_bytes - (kS - state.used[static_cast<size_t>(s)]);
          if (make_space(s, need)) {
            p3_moves->push_back(core::Migration{
                d->item, state.where[static_cast<size_t>(d->item)], s});
            state.ApplyMove(*d, s);
            placed = true;
            break;
          }
        }
      }
      if (!placed) return false;
    }
    return true;
  }

  Options options_;
  const LegacyHotColdPlanner* hot_cold_;
};

/// The full-sort CachePlanner (paper §IV-E / §IV-F).
class LegacyCachePlanner {
 public:
  using Options = core::CachePlanner::Options;

  explicit LegacyCachePlanner(const Options& options) : options_(options) {}

  core::CachePlan Plan(
      const core::ClassificationResult& classification,
      const core::HotColdPartition& partition,
      const std::vector<EnclosureId>& final_enclosure) const {
    core::CachePlan plan;

    auto on_cold = [&](const core::ItemClassification& cls) {
      EnclosureId enc = final_enclosure.at(static_cast<size_t>(cls.item));
      return !partition.IsHot(enc);
    };

    int64_t wd_budget = options_.write_delay_area_bytes;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP2 && on_cold(cls)) {
        plan.write_delay.push_back(cls.item);
        wd_budget -= cls.write_bytes;
      }
    }
    if (wd_budget > 0) {
      std::vector<const core::ItemClassification*> p1;
      for (const core::ItemClassification& cls : classification.items) {
        if (cls.pattern == core::IoPattern::kP1 && on_cold(cls) &&
            cls.writes > 0) {
          p1.push_back(&cls);
        }
      }
      std::stable_sort(p1.begin(), p1.end(),
                       [](const core::ItemClassification* a,
                          const core::ItemClassification* b) {
                         return a->writes > b->writes;
                       });
      for (const core::ItemClassification* cls : p1) {
        if (cls->write_bytes > wd_budget) continue;
        plan.write_delay.push_back(cls->item);
        wd_budget -= cls->write_bytes;
      }
    }

    std::vector<const core::ItemClassification*> candidates;
    for (const core::ItemClassification& cls : classification.items) {
      if (cls.pattern == core::IoPattern::kP1 && on_cold(cls) &&
          cls.reads > 0) {
        candidates.push_back(&cls);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const core::ItemClassification* a,
                        const core::ItemClassification* b) {
                       double da =
                           a->size_bytes > 0
                               ? static_cast<double>(a->reads) /
                                     static_cast<double>(a->size_bytes)
                               : 0.0;
                       double db =
                           b->size_bytes > 0
                               ? static_cast<double>(b->reads) /
                                     static_cast<double>(b->size_bytes)
                               : 0.0;
                       return da > db;
                     });
    int64_t pl_budget = options_.preload_area_bytes;
    for (const core::ItemClassification* cls : candidates) {
      if (cls->size_bytes > pl_budget) continue;
      plan.preload.emplace_back(cls->item, cls->size_bytes);
      pl_budget -= cls->size_bytes;
    }
    return plan;
  }

 private:
  Options options_;
};

}  // namespace ecostore::legacy

#endif  // ECOSTORE_BENCH_LEGACY_PLANNER_H_
