#include "core/placement_planner.h"

#include <algorithm>
#include <cassert>

namespace ecostore::core {

PlacementPlan PlacementPlanner::Plan(
    const ClassificationResult& classification,
    const storage::BlockVirtualization& virt) {
  int n = virt.num_enclosures();
  PlacementPlan plan;
  int min_hot = 0;
  while (true) {
    plan.partition = hot_cold_->Plan(classification, virt, min_hot);
    if (plan.partition.n_hot >= n) {
      // Everything is hot: no cold enclosures, nothing to move (and no
      // power saving this period).
      plan.migrations.clear();
      return plan;
    }
    evictions_scratch_.clear();
    p3_moves_scratch_.clear();
    if (TryPlace(classification, virt, plan.partition, &evictions_scratch_,
                 &p3_moves_scratch_)) {
      plan.migrations.reserve(evictions_scratch_.size() +
                              p3_moves_scratch_.size());
      plan.migrations.assign(evictions_scratch_.begin(),
                             evictions_scratch_.end());
      plan.migrations.insert(plan.migrations.end(),
                             p3_moves_scratch_.begin(),
                             p3_moves_scratch_.end());
      return plan;
    }
    // Paper Algorithm 2: "Increase N_hot and retry this algorithm".
    min_hot = plan.partition.n_hot + 1;
  }
}

bool PlacementPlanner::TryPlace(const ClassificationResult& classification,
                                const storage::BlockVirtualization& virt,
                                const HotColdPartition& partition,
                                std::vector<Migration>* evictions,
                                std::vector<Migration>* p3_moves) {
  const double kO = options_.max_enclosure_iops;
  const int64_t kS = options_.enclosure_capacity > 0
                         ? options_.enclosure_capacity
                         : virt.capacity_bytes();
  int n = virt.num_enclosures();

  WorkingState& state = state_;
  state.iops.assign(static_cast<size_t>(n), 0.0);
  state.used.assign(static_cast<size_t>(n), 0);
  state.where.resize(classification.items.size());
  for (const ItemClassification& cls : classification.items) {
    EnclosureId enc = virt.EnclosureOf(cls.item);
    state.where[static_cast<size_t>(cls.item)] = enc;
    state.iops[static_cast<size_t>(enc)] += cls.avg_iops;
    state.used[static_cast<size_t>(enc)] += cls.size_bytes;
  }

  cold_.Reset(n);
  hot_.Reset(n);
  for (int e = 0; e < n; ++e) {
    if (partition.IsHot(e)) {
      hot_.Push(e, state.iops[static_cast<size_t>(e)]);
    } else {
      cold_.Push(e, state.iops[static_cast<size_t>(e)]);
    }
  }
  buckets_built_ = false;

  // Algorithm 3's target choice: the cold enclosure with the largest
  // working IOPS that satisfies both guards. The heap pops cold
  // enclosures in exactly (IOPS desc, id asc) order; everything examined
  // is pushed back, and the caller re-keys the chosen target after the
  // move applies.
  auto find_cold_target = [&](const ItemClassification& cls) -> EnclosureId {
    EnclosureId found = kInvalidEnclosure;
    cold_scan_.clear();
    while (!cold_.empty()) {
      EnclosureId c = cold_.Pop();
      cold_scan_.push_back(c);
      bool fits =
          cls.size_bytes <= kS - state.used[static_cast<size_t>(c)];
      bool serves = state.iops[static_cast<size_t>(c)] + cls.avg_iops < kO;
      if (fits && serves) {
        found = c;
        break;
      }
    }
    for (EnclosureId c : cold_scan_) {
      cold_.Push(c, state.iops[static_cast<size_t>(c)]);
    }
    cold_scan_.clear();
    return found;
  };

  // One pass over the catalog builds every hot enclosure's movable list;
  // deferred until a make_space actually needs it. Movable items only
  // ever leave a hot enclosure (evictions target cold ones), so lazy
  // where-checks keep the buckets current without re-bucketing.
  auto build_buckets = [&]() {
    if (buckets_built_) return;
    buckets_built_ = true;
    if (buckets_.size() < static_cast<size_t>(n)) {
      buckets_.resize(static_cast<size_t>(n));
    }
    for (int e = 0; e < n; ++e) buckets_[static_cast<size_t>(e)].clear();
    bucket_sorted_.assign(static_cast<size_t>(n), 0);
    for (const ItemClassification& cls : classification.items) {
      if (cls.pattern != IoPattern::kP3 &&
          !virt.catalog().item(cls.item).pinned) {
        buckets_[static_cast<size_t>(
                     state.where[static_cast<size_t>(cls.item)])]
            .push_back(&cls);
      }
    }
  };

  // Algorithm 3 as a space-maker: evict P0/P1/P2 items from a hot
  // enclosure until `need` bytes are free. Largest items first minimises
  // the number of moves. On failure every eviction this call added is
  // rolled back — the target hot enclosure is being abandoned, so none
  // of the space made on it may leak into the plan.
  auto make_space = [&](EnclosureId s, int64_t need) -> bool {
    build_buckets();
    std::vector<const ItemClassification*>& bucket =
        buckets_[static_cast<size_t>(s)];
    if (!bucket_sorted_[static_cast<size_t>(s)]) {
      bucket_sorted_[static_cast<size_t>(s)] = 1;
      std::stable_sort(bucket.begin(), bucket.end(),
                       [](const ItemClassification* a,
                          const ItemClassification* b) {
                         return a->size_bytes > b->size_bytes;
                       });
    }
    const size_t mark = evictions->size();
    for (const ItemClassification* cls : bucket) {
      if (state.where[static_cast<size_t>(cls->item)] != s) continue;
      if (kS - state.used[static_cast<size_t>(s)] >= need) break;
      EnclosureId target = find_cold_target(*cls);
      if (target == kInvalidEnclosure) continue;
      evictions->push_back(Migration{cls->item, s, target});
      state.ApplyMove(*cls, target);
      cold_.Update(target, state.iops[static_cast<size_t>(target)]);
    }
    if (kS - state.used[static_cast<size_t>(s)] >= need) return true;
    while (evictions->size() > mark) {
      const Migration& mig = evictions->back();
      state.ApplyMove(classification.items[static_cast<size_t>(mig.item)],
                      s);
      cold_.Update(mig.to, state.iops[static_cast<size_t>(mig.to)]);
      evictions->pop_back();
    }
    return false;
  };

  // Algorithm 2: move P3 items off cold enclosures, most demanding
  // (IOPS per byte) first.
  movers_.clear();
  for (const ItemClassification& cls : classification.items) {
    if (cls.pattern == IoPattern::kP3 &&
        !partition.IsHot(state.where[static_cast<size_t>(cls.item)]) &&
        !virt.catalog().item(cls.item).pinned) {
      movers_.push_back(&cls);
    }
  }
  std::stable_sort(movers_.begin(), movers_.end(),
                   [](const ItemClassification* a,
                      const ItemClassification* b) {
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

  for (const ItemClassification* d : movers_) {
    // Pop hot enclosures in (IOPS asc, id asc) order — the snapshot the
    // reference re-sorted per item. The pop sequence doubles as that
    // fixed snapshot for the make_space pass below.
    hot_scan_.clear();
    EnclosureId placed_on = kInvalidEnclosure;
    while (!hot_.empty()) {
      EnclosureId s = hot_.Pop();
      hot_scan_.push_back(s);
      if (d->avg_iops + state.iops[static_cast<size_t>(s)] >= kO) {
        // Even the least-loaded hot enclosure would saturate: the hot set
        // is too small (paper: increase N_hot and retry). Candidates are
        // IOPS-ascending, so no later candidate can pass either.
        return false;
      }
      if (d->size_bytes + state.used[static_cast<size_t>(s)] <= kS) {
        placed_on = s;
        break;
      }
    }
    if (placed_on != kInvalidEnclosure) {
      EnclosureId from = state.where[static_cast<size_t>(d->item)];
      p3_moves->push_back(Migration{d->item, from, placed_on});
      state.ApplyMove(*d, placed_on);
      // The mover left a cold enclosure; its working IOPS dropped, and
      // find_cold_target orders by live IOPS — re-key it or later
      // eviction targets diverge from the reference.
      if (cold_.Contains(from)) {
        cold_.Update(from, state.iops[static_cast<size_t>(from)]);
      }
    } else {
      // All hot enclosures lack space: free some with Algorithm 3, in the
      // same fixed IOPS-ascending order (indices — make_space's rollback
      // path never touches hot_scan_, but stay defensive about growth).
      for (size_t i = 0; i < hot_scan_.size(); ++i) {
        EnclosureId s = hot_scan_[i];
        int64_t need =
            d->size_bytes - (kS - state.used[static_cast<size_t>(s)]);
        if (make_space(s, need)) {
          EnclosureId from = state.where[static_cast<size_t>(d->item)];
          p3_moves->push_back(Migration{d->item, from, s});
          state.ApplyMove(*d, s);
          if (cold_.Contains(from)) {
            cold_.Update(from, state.iops[static_cast<size_t>(from)]);
          }
          placed_on = s;
          break;
        }
      }
      if (placed_on == kInvalidEnclosure) return false;
    }
    for (EnclosureId s : hot_scan_) {
      hot_.Push(s, state.iops[static_cast<size_t>(s)]);
    }
    hot_scan_.clear();
  }
  return true;
}

}  // namespace ecostore::core
