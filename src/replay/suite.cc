#include "replay/suite.h"

#include <future>
#include <utility>

#include "common/thread_pool.h"
#include "core/eco_storage_policy.h"
#include "policies/basic_policies.h"
#include "policies/ddr_policy.h"
#include "policies/pdc_policy.h"

namespace ecostore::replay {

namespace {

Result<ExperimentMetrics> RunOneJob(const ExperimentJob& job) {
  Result<std::unique_ptr<workload::Workload>> workload = job.workload();
  if (!workload.ok()) return workload.status();
  std::unique_ptr<policies::StoragePolicy> policy = job.policy();
  Experiment experiment(workload.value().get(), policy.get(), job.config);
  return experiment.Run();
}

}  // namespace

Result<std::vector<ExperimentMetrics>> RunExperiments(
    const std::vector<ExperimentJob>& jobs, const SuiteOptions& options) {
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }

  if (options.num_threads == 1 || jobs.size() <= 1) {
    std::vector<ExperimentMetrics> results;
    results.reserve(jobs.size());
    for (const ExperimentJob& job : jobs) {
      Result<ExperimentMetrics> metrics = RunOneJob(job);
      if (!metrics.ok()) return metrics.status();
      results.push_back(std::move(metrics).value());
    }
    return results;
  }

  std::vector<std::future<Result<ExperimentMetrics>>> futures;
  futures.reserve(jobs.size());
  {
    ThreadPool pool(options.num_threads);
    for (const ExperimentJob& job : jobs) {
      futures.push_back(pool.Submit([&job] { return RunOneJob(job); }));
    }
    // Collect before the pool dies: the destructor discards queued tasks,
    // and get() blocks until each job finished (or rethrows its error).
    std::vector<ExperimentMetrics> results;
    results.reserve(jobs.size());
    Status first_error = Status::OK();
    for (std::future<Result<ExperimentMetrics>>& future : futures) {
      Result<ExperimentMetrics> metrics = future.get();
      if (!metrics.ok()) {
        if (first_error.ok()) first_error = metrics.status();
        continue;
      }
      results.push_back(std::move(metrics).value());
    }
    if (!first_error.ok()) return first_error;
    return results;
  }
}

Result<std::vector<ExperimentMetrics>> ParallelRunSuite(
    const WorkloadFactory& workload,
    const std::vector<PolicyFactory>& policies,
    const ExperimentConfig& config, const SuiteOptions& options) {
  std::vector<ExperimentJob> jobs;
  jobs.reserve(policies.size());
  for (const PolicyFactory& policy : policies) {
    jobs.push_back(ExperimentJob{workload, policy, config});
  }
  return RunExperiments(jobs, options);
}

const ExperimentMetrics* FindRun(const std::vector<ExperimentMetrics>& runs,
                                 const std::string& policy_name) {
  for (const ExperimentMetrics& m : runs) {
    if (m.policy == policy_name) return &m;
  }
  return nullptr;
}

std::vector<PolicyFactory> PaperPolicySet(
    const core::PowerManagementConfig& pm_config) {
  std::vector<PolicyFactory> factories;
  factories.push_back([] {
    return std::make_unique<policies::NoPowerSavingPolicy>();
  });
  factories.push_back([pm_config] {
    return std::make_unique<core::EcoStoragePolicy>(pm_config);
  });
  factories.push_back([] {
    return std::make_unique<policies::PdcPolicy>(policies::PdcPolicy::Options{});
  });
  factories.push_back([] {
    return std::make_unique<policies::DdrPolicy>(policies::DdrPolicy::Options{});
  });
  return factories;
}

}  // namespace ecostore::replay
