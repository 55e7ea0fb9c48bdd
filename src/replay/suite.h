#ifndef ECOSTORE_REPLAY_SUITE_H_
#define ECOSTORE_REPLAY_SUITE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/power_management.h"
#include "policies/storage_policy.h"
#include "replay/experiment.h"
#include "workload/workload.h"

namespace ecostore::replay {

/// Creates a fresh policy instance for one run (policies are stateful, so
/// each run gets its own).
using PolicyFactory =
    std::function<std::unique_ptr<policies::StoragePolicy>()>;

/// Creates a fresh workload instance for one run. Parallel runs cannot
/// share one workload object (Next()/Reset() mutate it), so each
/// experiment replays its own clone; factories must be deterministic —
/// every instance they produce streams the identical record sequence
/// (workload generators are seeded from their config, so building twice
/// from the same config satisfies this).
using WorkloadFactory =
    std::function<Result<std::unique_ptr<workload::Workload>>()>;

/// The WorkloadFactory that builds `W::Create(config)` for each run.
template <typename W, typename Config>
WorkloadFactory FactoryOf(const Config& config) {
  return [config]() -> Result<std::unique_ptr<workload::Workload>> {
    auto wl = W::Create(config);
    if (!wl.ok()) return wl.status();
    return Result<std::unique_ptr<workload::Workload>>(std::move(wl).value());
  };
}

/// Execution options of the suite/experiment runners.
struct SuiteOptions {
  /// Worker threads; 1 (the default) runs everything serially in the
  /// calling thread, with the same results as any other count.
  int num_threads = 1;
};

/// One independent experiment: its own workload clone, its own policy,
/// its own simulator — no shared mutable state with any other job.
struct ExperimentJob {
  WorkloadFactory workload;
  PolicyFactory policy;
  ExperimentConfig config;
};

/// \brief Runs arbitrary independent experiments, concurrently when
/// options.num_threads > 1. Results are returned in job order regardless
/// of completion order, and each job's workload/policy instances are
/// created on the thread that runs it, so the output is deterministic and
/// identical to a serial execution of the same jobs.
Result<std::vector<ExperimentMetrics>> RunExperiments(
    const std::vector<ExperimentJob>& jobs, const SuiteOptions& options);

/// \brief Runs one workload under several policies. Each run replays its
/// own clone from `workload`, so every policy replays the identical trace
/// (the paper's methodology, §VII-A). Results are in `policies` order;
/// with num_threads == 1 the experiments execute serially in that order.
Result<std::vector<ExperimentMetrics>> ParallelRunSuite(
    const WorkloadFactory& workload,
    const std::vector<PolicyFactory>& policies,
    const ExperimentConfig& config, const SuiteOptions& options);

/// Finds a run by policy name (nullptr if absent).
const ExperimentMetrics* FindRun(const std::vector<ExperimentMetrics>& runs,
                                 const std::string& policy_name);

/// The paper's four comparison policies in figure order: without power
/// saving, the proposed method, PDC, DDR. `pm_config` parameterises the
/// proposed method.
std::vector<PolicyFactory> PaperPolicySet(
    const core::PowerManagementConfig& pm_config);

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_SUITE_H_
