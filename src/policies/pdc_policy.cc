#include "policies/pdc_policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace ecostore::policies {

void PdcPolicy::Start(const storage::StorageSystem& system,
                      PolicyActuator* actuator) {
  size_t n_items = system.virtualization().catalog().item_count();
  popularity_.assign(n_items, 0.0);
  counter_.Reset(n_items);
  counting_ = actuator->AttachLogicalIoSink(&counter_);
  if (!counting_) {
    ECOSTORE_LOG(kError) << "pdc: the runtime cannot attach a logical I/O "
                            "sink; PDC sees no accesses and will not plan";
  }
  // PDC lets any enclosure spin down once its files stop being accessed.
  for (int e = 0; e < system.num_enclosures(); ++e) {
    actuator->SetSpinDownAllowed(static_cast<EnclosureId>(e), true);
  }
}

SimDuration PdcPolicy::OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                                   const storage::StorageSystem& system,
                                   PolicyActuator* actuator) {
  if (!counting_) return options_.epoch;
  const storage::BlockVirtualization& virt = system.virtualization();
  const storage::DataItemCatalog& catalog = virt.catalog();
  size_t n_items = catalog.item_count();
  int n_enc = system.num_enclosures();
  placement_determinations_++;

  // Update smoothed popularity from the epoch's access counts.
  counter_.TakeCounts(&counts_);
  double period_seconds = ToSeconds(snapshot.period_length());
  if (period_seconds <= 0) period_seconds = 1.0;
  for (size_t i = 0; i < n_items; ++i) {
    popularity_[i] = options_.decay * popularity_[i] +
                     static_cast<double>(counts_[i]);
  }

  // Rank items by popularity class, most popular first. Classes are
  // log-quantized so statistically identical items (e.g. hash partitions
  // of one table) keep a stable relative order across epochs instead of
  // reshuffling on sampling noise.
  auto pop_class = [&](size_t i) {
    return static_cast<int>(std::log2(popularity_[i] + 1.0));
  };
  std::vector<size_t> order(n_items);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return pop_class(a) > pop_class(b);
  });

  // Greedy concentration onto the lowest-numbered enclosures.
  int64_t space_budget = static_cast<int64_t>(
      options_.fill_fraction *
      static_cast<double>(virt.capacity_bytes()));
  double load_budget = options_.load_fraction * options_.max_enclosure_iops;
  std::vector<int64_t> used(static_cast<size_t>(n_enc), 0);
  std::vector<double> load(static_cast<size_t>(n_enc), 0.0);

  for (size_t rank : order) {
    auto item = static_cast<DataItemId>(rank);
    int64_t size = catalog.item(item).size_bytes;
    double iops = static_cast<double>(counts_[rank]) / period_seconds;
    int target = -1;
    for (int e = 0; e < n_enc; ++e) {
      if (used[static_cast<size_t>(e)] + size <= space_budget &&
          load[static_cast<size_t>(e)] + iops <= load_budget) {
        target = e;
        break;
      }
    }
    if (target < 0) {
      // Budgets exhausted everywhere: fall back to the emptiest enclosure.
      target = static_cast<int>(
          std::min_element(used.begin(), used.end()) - used.begin());
    }
    used[static_cast<size_t>(target)] += size;
    load[static_cast<size_t>(target)] += iops;
    if (virt.EnclosureOf(item) != target) {
      actuator->RequestMigration(item, static_cast<EnclosureId>(target));
    }
  }
  return options_.epoch;
}

}  // namespace ecostore::policies
