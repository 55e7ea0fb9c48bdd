#ifndef ECOSTORE_BENCH_SWEEP_CONFIG_H_
#define ECOSTORE_BENCH_SWEEP_CONFIG_H_

// The sensitivity-sweep configuration grid shared by bench_sweep (the
// figure run) and bench_micro --check/--record (the bit-identical replay
// regression gate). Keeping one definition guarantees the perf gate
// covers exactly the (workload, policy) pairs the sweep reports.

#include <memory>
#include <string>
#include <vector>

#include "core/eco_storage_policy.h"
#include "core/power_management.h"
#include "policies/basic_policies.h"
#include "replay/suite.h"
#include "storage/storage_config.h"
#include "workload/file_server_workload.h"

namespace ecostore::bench {

struct SweepRowSpec {
  std::string label;
  workload::FileServerConfig wl;
  replay::ExperimentConfig config;
  core::PowerManagementConfig pm;
};

struct SweepSection {
  std::string title;
  std::vector<SweepRowSpec> rows;
};

/// The paper-conclusion configuration study: preload-area size, spin-down
/// timeout, array width, and HDD vs SSD media. `base` carries the
/// workload duration (and any other file-server overrides) applied to
/// every row.
inline std::vector<SweepSection> SweepSections(
    const workload::FileServerConfig& base) {
  std::vector<SweepSection> sections;

  // --- 1. preload area --------------------------------------------------
  {
    SweepSection section;
    section.title = "[sweep 1] preload-area size:";
    for (int64_t mb : {0, 125, 250, 500, 1000}) {
      SweepRowSpec row;
      row.label = "preload area " + std::to_string(mb) + " MiB";
      row.wl = base;
      if (mb == 0) {
        row.pm.enable_preload = false;
      } else {
        row.config.storage.cache.preload_area_bytes = mb * kMiB;
      }
      section.rows.push_back(std::move(row));
    }
    sections.push_back(std::move(section));
  }

  // --- 2. spin-down timeout --------------------------------------------
  {
    SweepSection section;
    section.title = "[sweep 2] spin-down timeout (break-even 52 s):";
    for (int seconds : {13, 26, 52, 104, 208}) {
      SweepRowSpec row;
      row.label = "spin-down timeout " + std::to_string(seconds) + " s";
      row.wl = base;
      row.config.storage.enclosure.spindown_timeout = seconds * kSecond;
      section.rows.push_back(std::move(row));
    }
    sections.push_back(std::move(section));
  }

  // --- 3. array width ---------------------------------------------------
  {
    SweepSection section;
    section.title = "[sweep 3] array width:";
    for (int enclosures : {6, 12, 24}) {
      SweepRowSpec row;
      row.label = std::to_string(enclosures) + " enclosures";
      row.wl = base;
      row.wl.num_enclosures = enclosures;
      // Keep total data within capacity when the array shrinks.
      row.wl.archive_files = enclosures * 13;
      section.rows.push_back(std::move(row));
    }
    sections.push_back(std::move(section));
  }

  // --- 4. HDD vs SSD (paper §VIII-D) -------------------------------------
  {
    SweepSection section;
    section.title = "[sweep 4] media type:";
    {
      SweepRowSpec row;
      row.label = "HDD enclosures (break-even 52 s)";
      row.wl = base;
      row.config.storage.enclosure = storage::EnterpriseHddEnclosureConfig();
      section.rows.push_back(std::move(row));
    }
    {
      SweepRowSpec row;
      row.label = "SSD enclosures (break-even ~2 s)";
      row.wl = base;
      row.config.storage.enclosure = storage::SsdEnclosureConfig();
      row.pm.break_even = row.config.storage.enclosure.BreakEvenTime();
      section.rows.push_back(std::move(row));
    }
    sections.push_back(std::move(section));
  }

  return sections;
}

/// Flattens the sections into independent experiment jobs: per row the
/// no-power-saving reference followed by the proposed method (the order
/// bench_sweep prints them in).
inline std::vector<replay::ExperimentJob> SweepJobs(
    const std::vector<SweepSection>& sections) {
  std::vector<replay::ExperimentJob> jobs;
  for (const SweepSection& section : sections) {
    for (const SweepRowSpec& row : section.rows) {
      replay::ExperimentJob base;
      base.workload =
          replay::FactoryOf<workload::FileServerWorkload>(row.wl);
      base.policy = [] {
        return std::make_unique<policies::NoPowerSavingPolicy>();
      };
      base.config = row.config;
      jobs.push_back(std::move(base));

      replay::ExperimentJob eco;
      eco.workload = replay::FactoryOf<workload::FileServerWorkload>(row.wl);
      core::PowerManagementConfig pm = row.pm;
      eco.policy = [pm] {
        return std::make_unique<core::EcoStoragePolicy>(pm);
      };
      eco.config = row.config;
      jobs.push_back(std::move(eco));
    }
  }
  return jobs;
}

/// Row-major labels matching SweepJobs order.
inline std::vector<std::string> SweepJobLabels(
    const std::vector<SweepSection>& sections) {
  std::vector<std::string> labels;
  for (const SweepSection& section : sections) {
    for (const SweepRowSpec& row : section.rows) {
      labels.push_back(row.label + " / no_power_saving");
      labels.push_back(row.label + " / eco_storage");
    }
  }
  return labels;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_SWEEP_CONFIG_H_
