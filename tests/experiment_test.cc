// Tests for the experiment runner, metrics, and the application
// performance models (paper §VII-A.4/5).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "policies/basic_policies.h"
#include "replay/experiment.h"
#include "replay/metrics.h"
#include "replay/suite.h"
#include "telemetry/recorder.h"
#include "workload/file_server_workload.h"
#include "workload/oltp_workload.h"

namespace ecostore::replay {
namespace {

workload::FileServerConfig TinyFsConfig() {
  workload::FileServerConfig config;
  config.duration = 5 * kMinute;
  config.big_hot_files = 2;
  config.small_hot_files = 4;
  config.popular_files = 10;
  config.tail_files = 10;
  config.archive_files = 2;
  config.big_hot_file_bytes = 1 * kGiB;
  config.archive_file_bytes = 1 * kGiB;
  return config;
}

TEST(ExperimentTest, RunProducesSaneMetrics) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  policies::NoPowerSavingPolicy policy;
  ExperimentConfig config;
  Experiment experiment(workload.value().get(), &policy, config);
  auto metrics = experiment.Run();
  ASSERT_TRUE(metrics.ok());
  const ExperimentMetrics& m = metrics.value();
  EXPECT_EQ(m.policy, "no_power_saving");
  EXPECT_EQ(m.workload, "file_server");
  EXPECT_EQ(m.duration, 5 * kMinute);
  EXPECT_GT(m.logical_ios, 0);
  EXPECT_GT(m.physical_batches, 0);
  EXPECT_GT(m.avg_enclosure_power, 0);
  EXPECT_NEAR(m.avg_controller_power, 190.0, 0.5);
  EXPECT_GT(m.avg_response_ms, 0);
  EXPECT_EQ(m.spinups, 0);  // no power saving: nothing ever spins up
  EXPECT_EQ(m.migrated_bytes, 0);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  ExperimentMetrics first;
  {
    policies::FixedTimeoutPolicy policy;
    Experiment experiment(workload.value().get(), &policy,
                          ExperimentConfig{});
    first = experiment.Run().value();
  }
  ExperimentMetrics second;
  {
    policies::FixedTimeoutPolicy policy;
    Experiment experiment(workload.value().get(), &policy,
                          ExperimentConfig{});
    second = experiment.Run().value();
  }
  EXPECT_EQ(first.logical_ios, second.logical_ios);
  EXPECT_DOUBLE_EQ(first.enclosure_energy, second.enclosure_energy);
  EXPECT_DOUBLE_EQ(first.avg_response_ms, second.avg_response_ms);
  EXPECT_EQ(first.spinups, second.spinups);
}

TEST(ExperimentTest, ExplicitDurationOverridesWorkload) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  policies::NoPowerSavingPolicy policy;
  ExperimentConfig config;
  config.duration = 1 * kMinute;
  Experiment experiment(workload.value().get(), &policy, config);
  auto metrics = experiment.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().duration, 1 * kMinute);
}

TEST(ExperimentTest, NoPolicyRetainsALogicalTraceByDefault) {
  workload::OltpConfig oltp;
  oltp.duration = 2 * kMinute;
  auto workload = workload::OltpWorkload::Create(oltp);
  ASSERT_TRUE(workload.ok());
  std::vector<PolicyFactory> factories =
      PaperPolicySet(core::PowerManagementConfig{});
  factories.push_back(
      [] { return std::make_unique<policies::FixedTimeoutPolicy>(); });
  for (const PolicyFactory& factory : factories) {
    std::unique_ptr<policies::StoragePolicy> policy = factory();
    Experiment experiment(workload.value().get(), policy.get(),
                          ExperimentConfig{});
    auto metrics = experiment.Run();
    ASSERT_TRUE(metrics.ok()) << policy->name();
    EXPECT_GT(metrics.value().logical_ios, 0) << policy->name();
    EXPECT_FALSE(experiment.application_monitor().capture())
        << policy->name();
    EXPECT_EQ(experiment.application_monitor().buffer().capacity(), 0u)
        << policy->name();
  }
}

/// Opts in to the per-period trace and tallies what each period end sees.
class TraceReadingPolicy : public policies::NoPowerSavingPolicy {
 public:
  std::string name() const override { return "trace_reading"; }
  SimDuration initial_period() const override { return 1 * kMinute; }
  bool wants_logical_trace() const override { return true; }

  SimDuration OnPeriodEnd(const monitor::MonitorSnapshot& snapshot,
                          const storage::StorageSystem& system,
                          policies::PolicyActuator* actuator) override {
    (void)system;
    (void)actuator;
    records_seen += static_cast<int64_t>(
        snapshot.application->buffer().records().size());
    return initial_period();
  }

  int64_t records_seen = 0;
};

TEST(ExperimentTest, OptedInPolicyGetsTheLogicalTrace) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  TraceReadingPolicy policy;
  Experiment experiment(workload.value().get(), &policy, ExperimentConfig{});
  auto metrics = experiment.Run();
  ASSERT_TRUE(metrics.ok());
  const monitor::ApplicationMonitor& monitor =
      experiment.application_monitor();
  EXPECT_TRUE(monitor.capture());
  EXPECT_GT(policy.records_seen, 0);
  // Every logical I/O is in a period the policy saw or in the last one.
  EXPECT_EQ(policy.records_seen + static_cast<int64_t>(monitor.buffer().size()),
            metrics.value().logical_ios);
}

/// FixedTimeoutPolicy that counts the storage events the run forwards.
class CountingTimeoutPolicy : public policies::FixedTimeoutPolicy {
 public:
  void OnPowerOn(EnclosureId enclosure, SimTime at) override {
    FixedTimeoutPolicy::OnPowerOn(enclosure, at);
    power_ons++;
  }
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    FixedTimeoutPolicy::OnIdleGapEnd(enclosure, at, gap);
    idle_gaps++;
  }

  int64_t power_ons = 0;
  int64_t idle_gaps = 0;
};

TEST(ExperimentTest, ForwardsEverySpinUpAndIdleGapToThePolicy) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  CountingTimeoutPolicy policy;
  Experiment experiment(workload.value().get(), &policy, ExperimentConfig{});
  auto metrics = experiment.Run();
  ASSERT_TRUE(metrics.ok());
  const ExperimentMetrics& m = metrics.value();
  EXPECT_GT(policy.power_ons, 0);
  EXPECT_EQ(policy.power_ons, m.spinups);
  EXPECT_GT(policy.idle_gaps, 0);
  EXPECT_EQ(policy.idle_gaps, static_cast<int64_t>(m.idle_gaps.size()));
}

/// Asks for a preload set larger than the preload area, which the
/// runtime rejects with a warning.
class OversizedPreloadPolicy : public policies::NoPowerSavingPolicy {
 public:
  void Start(const storage::StorageSystem& system,
             policies::PolicyActuator* actuator) override {
    NoPowerSavingPolicy::Start(system, actuator);
    actuator->SetPreloadItems({{DataItemId{0}, INT64_MAX}});
  }
};

/// Collects the log lines emitted on this thread.
class MessageSink : public LogSink {
 public:
  MessageSink() : previous_(Logger::SetThreadSink(this)) {}
  ~MessageSink() override { Logger::SetThreadSink(previous_); }

  void WriteLog(LogLevel level, const char*, int,
                const std::string& message) override {
    if (level == LogLevel::kWarn) warnings.push_back(message);
  }

  std::vector<std::string> warnings;

 private:
  LogSink* previous_;
};

TEST(ExperimentTest, InstrumentedRunLogsWarningsToTheThreadSink) {
  auto workload = workload::FileServerWorkload::Create(TinyFsConfig());
  ASSERT_TRUE(workload.ok());
  OversizedPreloadPolicy policy;
  telemetry::Recorder recorder;
  ExperimentConfig config;
  config.telemetry = &recorder;
  MessageSink sink;
  Experiment experiment(workload.value().get(), &policy, config);
  ASSERT_TRUE(experiment.Run().ok());
  ASSERT_EQ(sink.warnings.size(), 1u);
  EXPECT_EQ(sink.warnings[0].rfind("SetPreloadItems: ", 0), 0u)
      << sink.warnings[0];
}

TEST(MetricsTest, IntervalCdfSumsGapsAboveThreshold) {
  ExperimentMetrics m;
  m.idle_gaps = {10 * kSecond, 60 * kSecond, 120 * kSecond};
  auto points = m.IntervalCdf({1 * kSecond, 52 * kSecond, 100 * kSecond});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].cumulative_seconds, 190.0);
  EXPECT_EQ(points[0].count, 3);
  EXPECT_DOUBLE_EQ(points[1].cumulative_seconds, 180.0);
  EXPECT_EQ(points[1].count, 2);
  EXPECT_DOUBLE_EQ(points[2].cumulative_seconds, 120.0);
}

TEST(MetricsTest, PowerSavingPercentage) {
  ExperimentMetrics base, run;
  base.avg_enclosure_power = 2000.0;
  run.avg_enclosure_power = 1500.0;
  EXPECT_DOUBLE_EQ(run.EnclosurePowerSavingVs(base), 25.0);
  EXPECT_DOUBLE_EQ(base.EnclosurePowerSavingVs(base), 0.0);
}

TEST(MetricsTest, ThroughputScalesInverselyWithReadResponse) {
  ExperimentMetrics base, run;
  base.avg_read_response_ms = 10.0;
  run.avg_read_response_ms = 20.0;
  EXPECT_DOUBLE_EQ(ScaledTransactionThroughput(1859.0, base, run), 929.5);
  // Faster reads -> higher throughput.
  run.avg_read_response_ms = 5.0;
  EXPECT_DOUBLE_EQ(ScaledTransactionThroughput(1859.0, base, run), 3718.0);
  // Degenerate inputs fall back to the baseline.
  run.avg_read_response_ms = 0.0;
  EXPECT_DOUBLE_EQ(ScaledTransactionThroughput(1859.0, base, run), 1859.0);
}

TEST(MetricsTest, QueryResponseScalesWithSums) {
  ExperimentMetrics base, run;
  base.tag_stats[7] = {1000.0, 10, 0, 0};
  run.tag_stats[7] = {3000.0, 10, 0, 0};
  auto scaled = ScaledQueryResponses({{7, 100.0}}, base, run);
  EXPECT_DOUBLE_EQ(scaled[7], 300.0);
  // Missing tags keep the baseline value.
  auto missing = ScaledQueryResponses({{9, 50.0}}, base, run);
  EXPECT_DOUBLE_EQ(missing[9], 50.0);
  // A tag whose runs never issued a read also falls back.
  base.tag_stats[11] = {0.0, 0, 0, 0};
  run.tag_stats[11] = {0.0, 0, 0, 0};
  auto writes_only = ScaledQueryResponses({{11, 40.0}}, base, run);
  EXPECT_DOUBLE_EQ(writes_only[11], 40.0);
}

TEST(MetricsTest, MeasuredQueryWall) {
  ExperimentMetrics run;
  run.tag_stats[3].first_issue = 10 * kSecond;
  run.tag_stats[3].last_completion = 70 * kSecond;
  auto wall = MeasuredQueryWallSeconds(run);
  EXPECT_DOUBLE_EQ(wall[3], 60.0);
}

}  // namespace
}  // namespace ecostore::replay
