// End-to-end integration tests: full policy suites over shortened
// workloads, checking the paper's qualitative relations.

#include <gtest/gtest.h>

#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "replay/report.h"
#include "replay/suite.h"
#include "workload/file_server_workload.h"
#include "workload/oltp_workload.h"

namespace ecostore::replay {
namespace {

TEST(IntegrationTest, FileServerSuiteOrdering) {
  workload::FileServerConfig wl_config;
  wl_config.duration = 80 * kMinute;
  // Thin the workload to keep the test under a few seconds.
  wl_config.big_hot_files = 4;
  wl_config.small_hot_files = 30;
  wl_config.popular_files = 80;
  wl_config.tail_files = 120;
  wl_config.archive_files = 40;
  const WorkloadFactory factory =
      FactoryOf<workload::FileServerWorkload>(wl_config);

  core::PowerManagementConfig pm;
  auto runs = ParallelRunSuite(factory, PaperPolicySet(pm),
                               ExperimentConfig{}, SuiteOptions{});
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 4u);

  const ExperimentMetrics* base = FindRun(runs.value(), "no_power_saving");
  const ExperimentMetrics* proposed = FindRun(runs.value(), "proposed");
  const ExperimentMetrics* pdc = FindRun(runs.value(), "pdc");
  const ExperimentMetrics* ddr = FindRun(runs.value(), "ddr");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(proposed, nullptr);
  ASSERT_NE(pdc, nullptr);
  ASSERT_NE(ddr, nullptr);

  // Every run replays the identical trace.
  EXPECT_EQ(base->logical_ios, proposed->logical_ios);
  EXPECT_EQ(base->logical_ios, pdc->logical_ios);
  EXPECT_EQ(base->logical_ios, ddr->logical_ios);

  // Paper Fig. 8 shape: the proposed method beats both baselines.
  EXPECT_LT(proposed->avg_enclosure_power, base->avg_enclosure_power);
  EXPECT_LT(proposed->avg_enclosure_power, pdc->avg_enclosure_power);
  EXPECT_LT(proposed->avg_enclosure_power, ddr->avg_enclosure_power);

  // Paper Fig. 10 shape: the proposed method moves far less than PDC.
  EXPECT_LT(proposed->migrated_bytes, pdc->migrated_bytes / 4);

  // Paper §VII-D: DDR makes orders of magnitude more determinations.
  EXPECT_GT(ddr->placement_determinations,
            100 * proposed->placement_determinations);
  EXPECT_GT(ddr->placement_determinations,
            100 * pdc->placement_determinations);

  // Fig. 17 shape: proposed accumulates more long-interval time than DDR.
  auto proposed_cdf = proposed->IntervalCdf({52 * kSecond});
  auto ddr_cdf = ddr->IntervalCdf({52 * kSecond});
  EXPECT_GT(proposed_cdf[0].cumulative_seconds,
            ddr_cdf[0].cumulative_seconds);

  // Energy conservation sanity: total energy within the physical envelope.
  for (const ExperimentMetrics& m : runs.value()) {
    double idle_floor = 0.0;  // everything off
    double active_ceiling =
        12 * 1000.0 + 190.0;  // all enclosures at spin-up power
    EXPECT_GT(m.avg_total_power, idle_floor);
    EXPECT_LT(m.avg_total_power, active_ceiling);
  }
}

// Known deviation 3 (EXPERIMENTS.md): on the file server PDC costs power
// instead of saving it, because it migrates far more than the proposed
// method. Run on bench_fileserver's quick configuration.
TEST(IntegrationTest, FileServerPdcCostsPowerThroughMigration) {
  workload::FileServerConfig wl_config;
  wl_config.duration = 45 * kMinute;
  const WorkloadFactory factory =
      FactoryOf<workload::FileServerWorkload>(wl_config);
  ExperimentConfig config;
  config.power_sample_interval = 60 * kSecond;

  // PaperPolicySet order: no_power_saving, proposed, pdc, ddr.
  std::vector<PolicyFactory> paper =
      PaperPolicySet(core::PowerManagementConfig{});
  auto runs = ParallelRunSuite(factory, {paper[0], paper[1], paper[2]},
                               config, SuiteOptions{});
  ASSERT_TRUE(runs.ok());
  const ExperimentMetrics* base = FindRun(runs.value(), "no_power_saving");
  const ExperimentMetrics* proposed = FindRun(runs.value(), "proposed");
  const ExperimentMetrics* pdc = FindRun(runs.value(), "pdc");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(proposed, nullptr);
  ASSERT_NE(pdc, nullptr);

  EXPECT_GT(pdc->avg_enclosure_power, base->avg_enclosure_power);
  EXPECT_GT(pdc->migrated_bytes, proposed->migrated_bytes);
}

TEST(IntegrationTest, OltpProposedSavesWithoutCollapse) {
  workload::OltpConfig wl_config;
  wl_config.duration = 40 * kMinute;
  wl_config.total_db_iops = 1200;  // scaled-down rig
  const WorkloadFactory factory =
      FactoryOf<workload::OltpWorkload>(wl_config);

  core::PowerManagementConfig pm;
  std::vector<PolicyFactory> factories;
  factories.push_back(
      [] { return std::make_unique<ecostore::policies::NoPowerSavingPolicy>(); });
  factories.push_back(
      [pm] { return std::make_unique<core::EcoStoragePolicy>(pm); });
  auto runs = ParallelRunSuite(factory, factories, ExperimentConfig{},
                               SuiteOptions{});
  ASSERT_TRUE(runs.ok());
  const ExperimentMetrics& base = runs.value()[0];
  const ExperimentMetrics& proposed = runs.value()[1];

  EXPECT_LT(proposed.avg_enclosure_power, base.avg_enclosure_power);
  // Throughput must not collapse (paper: -8.5%; we allow ample slack).
  double tpmc = ScaledTransactionThroughput(1859.0, base, proposed);
  EXPECT_GT(tpmc, 1859.0 * 0.5);
}

TEST(IntegrationTest, AblationPreloadMatters) {
  workload::FileServerConfig wl_config;
  wl_config.duration = 60 * kMinute;
  wl_config.big_hot_files = 4;
  wl_config.small_hot_files = 30;
  wl_config.popular_files = 80;
  wl_config.tail_files = 100;
  wl_config.archive_files = 30;
  const WorkloadFactory factory =
      FactoryOf<workload::FileServerWorkload>(wl_config);

  core::PowerManagementConfig full;
  core::PowerManagementConfig no_preload = full;
  no_preload.enable_preload = false;

  std::vector<PolicyFactory> factories;
  factories.push_back(
      [full] { return std::make_unique<core::EcoStoragePolicy>(full); });
  factories.push_back([no_preload] {
    return std::make_unique<core::EcoStoragePolicy>(no_preload);
  });
  auto runs = ParallelRunSuite(factory, factories, ExperimentConfig{},
                               SuiteOptions{});
  ASSERT_TRUE(runs.ok());
  const ExperimentMetrics& with_preload = runs.value()[0];
  const ExperimentMetrics& without = runs.value()[1];
  // Preload absorbs the popular episodes; disabling it leaves the cold
  // enclosures fielding those reads from disk, waking them more often and
  // burning more power.
  EXPECT_GE(with_preload.cache_hit_ios, without.cache_hit_ios);
  EXPECT_LE(with_preload.avg_enclosure_power,
            without.avg_enclosure_power * 1.02);
  EXPECT_LE(with_preload.spinups, without.spinups + 5);
}

}  // namespace
}  // namespace ecostore::replay
