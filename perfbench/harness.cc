// The replay benchmark harness: replays one named workload through the
// public replay::Experiment API for a fixed host-time budget, checks the
// simulated results, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of an outside-in traced run) as one
// JSON object on the last line of stdout. perfbench/run.py builds this
// binary and forwards its arguments; perfbench/NOTES.md explains the
// metrics and workloads.
//
//   perfbench --workload fileserver|fleet|oltp-baselines --seed N
//             --seconds S --trace 0|1 [--fingerprints FILE]
//             [--expect-fingerprint HEX] [--short] [--spans FILE]

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/replay_check.h"
#include "common/logging.h"
#include "core/eco_storage_policy.h"
#include "replay/experiment.h"
#include "replay/suite.h"
#include "trace.h"
#include "workload/cloud_block_workload.h"
#include "workload/file_server_workload.h"
#include "workload/oltp_workload.h"

namespace perfbench {
namespace {

using es::replay::ExperimentMetrics;
using WorkloadPtr = std::unique_ptr<es::workload::Workload>;

// ---------------------------------------------------------------------------
// Workloads

/// One benchmark workload: how to build its generator from a seed, and
/// which of the paper's policies (PaperPolicySet indices: 0 no power
/// saving, 1 proposed, 2 PDC, 3 DDR) replay it, one after another.
struct WorkloadSpec {
  std::string name;
  std::vector<int> policies;
  std::function<es::Result<WorkloadPtr>(uint64_t seed, bool short_run)>
      create;
};

template <typename W, typename Config>
es::Result<WorkloadPtr> Build(const Config& config) {
  auto wl = W::Create(config);
  if (!wl.ok()) return wl.status();
  return es::Result<WorkloadPtr>(WorkloadPtr(std::move(wl).value()));
}

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> specs;
  // The paper's headline file-server trace under the proposed method,
  // at the generator's defaults (12 enclosures, 6 h simulated).
  specs.push_back({"fileserver", {1}, [](uint64_t seed, bool short_run) {
                     es::workload::FileServerConfig wl;
                     wl.seed = seed;
                     if (short_run) wl.duration = 30 * es::kMinute;
                     return Build<es::workload::FileServerWorkload>(wl);
                   }});
  // A 1k-enclosure slice of bench_fleet: 100k items, 1 h simulated,
  // write-dominant heavy-tailed volumes; classifier state far beyond L2.
  specs.push_back({"fleet", {1}, [](uint64_t seed, bool short_run) {
                     es::workload::CloudBlockConfig wl;
                     wl.num_enclosures = short_run ? 100 : 1000;
                     wl.volumes_per_enclosure = 10;
                     wl.items_per_volume = 10;
                     wl.duration = (short_run ? 10 : 60) * es::kMinute;
                     wl.seed = seed;
                     return Build<es::workload::CloudBlockWorkload>(wl);
                   }});
  // TPC-C-shaped OLTP under the three baselines that bypass the monitor
  // sink and the core/ planner. Shortened from 1.8 h to 31 min, the
  // shortest trace that still reaches PDC's 30-minute epoch end, so one
  // repetition (three replays) takes about ten host seconds.
  specs.push_back({"oltp-baselines", {0, 2, 3},
                   [](uint64_t seed, bool short_run) {
                     es::workload::OltpConfig wl;
                     wl.seed = seed;
                     wl.duration = (short_run ? 5 : 31) * es::kMinute;
                     return Build<es::workload::OltpWorkload>(wl);
                   }});
  return specs;
}

// ---------------------------------------------------------------------------
// Small helpers

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The upper quartile: the fast end of a set of throughputs.
double FastQuartile(const std::vector<double>& v) { return Quantile(v, 0.75); }

/// Serves every later allocation from the heap and never returns freed
/// heap to the kernel, so repetitions after the first reuse pages that
/// are already mapped. Without it each oltp-baselines replay maps and
/// unmaps ~470 MiB of trace capture: 1.3M page faults and a tenth of the
/// run in the kernel, whose cost varies with the host's memory state.
void RetainHeap() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves the calling thread to the repetition's CPU, taking the allowed
/// CPUs in turn. Left alone, the kernel keeps a single-threaded run on one
/// virtual CPU for its whole length, and on a shared host how fast that
/// CPU runs depends on what else the host places beside it (6 s file-server
/// runs pinned to each CPU in turn read ~3.4M I/O/s on one and ~2.55M on
/// another, twice over), so each run would measure the CPU it landed on.
/// In turn, every run samples all of them and the fast quartile draws on
/// the fastest.
void PinForRepetition(const std::vector<int>& cpus, size_t rep) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[rep % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness

/// Counts operations (one per experiment run) and the runs that failed a
/// check, printing the reason for each failure.
struct Checker {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Run(const std::string& label, const std::vector<std::string>& errors) {
    attempted++;
    if (errors.empty()) return;
    failed++;
    for (const std::string& e : errors) {
      std::printf("CHECK FAILED %s: %s\n", label.c_str(), e.c_str());
    }
  }
};

bool Close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Invariants every replay must satisfy whatever the seed.
std::vector<std::string> CheckInvariants(const ExperimentMetrics& m,
                                         int64_t expected_records) {
  std::vector<std::string> errors;
  // Each logical I/O the workload generated completes exactly once.
  if (m.logical_ios != expected_records ||
      m.response_us.count() != m.logical_ios) {
    errors.push_back("records " + std::to_string(expected_records) +
                     " / logical_ios " + std::to_string(m.logical_ios) +
                     " / responses " + std::to_string(m.response_us.count()));
  }
  // Energy reconciles with the reported average power over the run, and
  // the per-enclosure meters add up to the enclosure total.
  const double seconds = static_cast<double>(m.duration) / es::kSecond;
  const double energy = m.enclosure_energy + m.controller_energy;
  if (!Close(energy, m.avg_total_power * seconds, 1e-9)) {
    errors.push_back("energy " + std::to_string(energy) +
                     " J != avg power x duration " +
                     std::to_string(m.avg_total_power * seconds) + " J");
  }
  double per_enclosure = 0.0;
  for (const auto& e : m.per_enclosure) per_enclosure += e.energy;
  if (!Close(per_enclosure, m.enclosure_energy, 1e-9)) {
    errors.push_back("per-enclosure energy " + std::to_string(per_enclosure) +
                     " J != enclosure energy " +
                     std::to_string(m.enclosure_energy) + " J");
  }
  return errors;
}

/// Recorded fingerprints, keyed "<workload>/<policy>/seed=<n>".
std::map<std::string, uint64_t> LoadFingerprints(const std::string& path) {
  std::map<std::string, uint64_t> out;
  std::vector<es::bench::ReplayCheckRun> runs;
  if (path.empty() || !es::bench::LoadGoldenFingerprints(path, &runs)) {
    return out;
  }
  for (const auto& run : runs) out[run.label] = run.fingerprint;
  return out;
}

// ---------------------------------------------------------------------------
// One repetition: every policy of the workload replayed once

struct RunResult {
  ExperimentMetrics metrics;
  uint64_t fingerprint = 0;
  double run_s = 0.0;
};

struct Rep {
  std::vector<RunResult> runs;

  int64_t lios() const {
    int64_t n = 0;
    for (const RunResult& r : runs) n += r.metrics.logical_ios;
    return n;
  }

  double lios_per_s() const {
    double secs = 0.0;
    for (const RunResult& r : runs) secs += r.run_s;
    return secs > 0.0 ? static_cast<double>(lios()) / secs : 0.0;
  }
};

/// The throughput a run reports: one repetition's logical I/Os over the
/// sum, across the workload's policies, of each policy's fast-quartile
/// replay time. Other tenants of a shared host only ever slow a replay
/// down, in phases that last seconds to minutes; the fast quartile tracks
/// the code's own cost, and taking it per policy draws on every replay
/// rather than on whole repetitions, of which a run holds only a few.
/// Repetitions before `first` are warm-up and not counted.
double FastLiosPerS(const std::vector<Rep>& reps, size_t first) {
  if (reps.size() <= first) return 0.0;
  double secs = 0.0;
  for (size_t p = 0; p < reps[first].runs.size(); ++p) {
    std::vector<double> times;
    for (size_t i = first; i < reps.size(); ++i) {
      if (p < reps[i].runs.size()) times.push_back(reps[i].runs[p].run_s);
    }
    secs += Quantile(times, 0.25);
  }
  return secs > 0.0 ? static_cast<double>(reps[first].lios()) / secs : 0.0;
}

/// Per-layer figures of one traced repetition, summed over its runs.
using LayerMetrics = std::map<std::string, double>;

struct Bench {
  WorkloadSpec spec;
  uint64_t seed = 0;
  bool short_run = false;
  std::map<std::string, uint64_t> recorded;
  std::optional<uint64_t> expect_override;
  int64_t expected_records = 0;
  Checker checker;
  /// First untraced fingerprint of each policy: later repetitions (and
  /// the traced runs) must reproduce it exactly.
  std::vector<uint64_t> first_fingerprint;

  std::string Label(const std::string& policy) const {
    return spec.name + "/" + policy + "/seed=" + std::to_string(seed) +
           (short_run ? "/short" : "");
  }
};

std::vector<std::string> CheckRun(Bench* b, size_t policy_index,
                                  const RunResult& r) {
  std::vector<std::string> errors =
      CheckInvariants(r.metrics, b->expected_records);
  const std::string label = b->Label(r.metrics.policy);
  std::optional<uint64_t> want = b->expect_override;
  if (!want) {
    auto it = b->recorded.find(label);
    if (it != b->recorded.end()) want = it->second;
  }
  if (want && *want != r.fingerprint) {
    errors.push_back("fingerprint " + Hex(r.fingerprint) + " != expected " +
                     Hex(*want));
  }
  if (b->first_fingerprint.size() <= policy_index) {
    b->first_fingerprint.resize(policy_index + 1, 0);
    b->first_fingerprint[policy_index] = r.fingerprint;
  } else if (b->first_fingerprint[policy_index] != r.fingerprint) {
    errors.push_back("fingerprint " + Hex(r.fingerprint) +
                     " differs from the first repetition's " +
                     Hex(b->first_fingerprint[policy_index]));
  }
  return errors;
}

std::vector<es::replay::PolicyFactory> Policies(const Bench& b) {
  const auto all =
      es::replay::PaperPolicySet(es::core::PowerManagementConfig{});
  std::vector<es::replay::PolicyFactory> out;
  for (int index : b.spec.policies) out.push_back(all[index]);
  return out;
}

/// Set-up samples taken in one gap between repetitions, at most.
constexpr size_t kSetupSamples = 100;

/// One set-up, timed: the workload build (catalog and generator) plus
/// the construction of every policy and Experiment of the workload — all
/// the host work before Experiment::Run.
std::optional<double> TimeSetup(const Bench& b) {
  const Clock::time_point start = Clock::now();
  auto wl = b.spec.create(b.seed, b.short_run);
  if (!wl.ok()) return std::nullopt;
  for (const auto& factory : Policies(b)) {
    std::unique_ptr<es::policies::StoragePolicy> policy = factory();
    es::replay::Experiment exp(wl.value().get(), policy.get(),
                               es::replay::ExperimentConfig{});
  }
  return Seconds(Clock::now() - start);
}

/// Untraced repetition: nothing but the workload, the policy and the
/// engine; telemetry, latency books, stream consumers and the profiler
/// stay detached.
std::optional<Rep> RunPlain(Bench* b) {
  Rep rep;
  auto wl = b->spec.create(b->seed, b->short_run);
  if (!wl.ok()) {
    std::printf("workload create failed: %s\n",
                wl.status().ToString().c_str());
    return std::nullopt;
  }
  const auto factories = Policies(*b);
  for (size_t i = 0; i < factories.size(); ++i) {
    std::unique_ptr<es::policies::StoragePolicy> policy = factories[i]();
    es::replay::Experiment exp(wl.value().get(), policy.get(),
                               es::replay::ExperimentConfig{});
    const Clock::time_point start = Clock::now();
    auto metrics = exp.Run();
    const double run_s = Seconds(Clock::now() - start);
    if (!metrics.ok()) {
      b->checker.Run(b->Label(policy->name()),
                     {"run failed: " + metrics.status().ToString()});
      continue;
    }
    RunResult r{std::move(metrics).value(), 0, run_s};
    r.fingerprint = es::bench::MetricsFingerprint(r.metrics);
    b->checker.Run(b->Label(r.metrics.policy), CheckRun(b, i, r));
    rep.runs.push_back(std::move(r));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Traced repetition

/// Which layer a span's self time belongs to (layer names follow src/).
std::string LayerOf(const std::string& span) {
  if (span == "replay.run") return "unattributed";
  if (span.rfind("workload.", 0) == 0) return "workload";
  if (span == "ingest") return "storage_sim";
  if (span.rfind("core.", 0) == 0 || span == "classify_finalize" ||
      span == "plan" || span == "migrate" || span == "flush") {
    return "core";
  }
  if (span.rfind("policies.", 0) == 0) return "policies";
  return "replay";  // replay.start, period_end, finalize, ledger_pump
}

const char* const kLayers[] = {"workload", "monitor",     "core",
                               "policies", "replay",      "storage_sim",
                               "unattributed"};

/// Every per-layer metric the traced mode prints, with its unit. A layer
/// a workload bypasses reports zeros.
const std::pair<const char*, const char*> kLayerMetricUnits[] = {
    {"workload.records", "count"},
    {"workload.next_batch_ms", "ms"},
    {"workload.ns_per_record", "ns"},
    {"workload.create_ms", "ms"},
    {"monitor.sink_calls", "count"},
    {"monitor.sink_ms", "ms"},
    {"monitor.sink_ns_per_lio", "ns"},
    {"core.period_end_calls", "count"},
    {"core.period_end_ms_p50", "ms"},
    {"core.period_end_ms_max", "ms"},
    {"core.classify_finalize_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.migrate_ms", "ms"},
    {"core.flush_ms", "ms"},
    {"core.placement_determinations", "count"},
    {"core.incremental_replans", "count"},
    {"core.placements_skipped", "count"},
    {"core.classifier_peak_state_mib", "MiB"},
    {"policies.period_end_ms", "ms"},
    {"policies.physical_io_hook_calls", "count"},
    {"policies.physical_io_hook_ms", "ms"},
    {"policies.placement_determinations", "count"},
    {"replay.run_ms", "ms"},
    {"replay.ingest_self_ms", "ms"},
    {"replay.finalize_ms", "ms"},
    {"replay.periods", "count"},
    {"replay.migration_requests", "count"},
    {"storage_sim.self_ns_per_lio", "ns"},
    {"storage.cache_hit_ratio", "ratio"},
    {"storage.physical_per_lio", "ratio"},
    {"storage.spinups", "count"},
    {"storage.util_mean", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_lio", "ratio"},
    {"sim.cancelled", "count"},
    {"sim.peak_heap_depth", "count"},
    {"layer.workload_ms", "ms"},
    {"layer.monitor_ms", "ms"},
    {"layer.core_ms", "ms"},
    {"layer.policies_ms", "ms"},
    {"layer.replay_ms", "ms"},
    {"layer.storage_sim_ms", "ms"},
    {"layer.unattributed_ms", "ms"},
    {"layer.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

struct TracedRep {
  double lios_per_s = 0.0;
  LayerMetrics layer;
  std::vector<Span> spans;
};

std::optional<TracedRep> RunTraced(Bench* b, int rep_index) {
  TracedRep out;
  const Clock::time_point create_start = Clock::now();
  auto wl = b->spec.create(b->seed, b->short_run);
  const double create_s = Seconds(Clock::now() - create_start);
  if (!wl.ok()) {
    std::printf("workload create failed: %s\n",
                wl.status().ToString().c_str());
    return std::nullopt;
  }
  // Sums over the repetition's runs; ratios are formed after the loop.
  LayerMetrics& m = out.layer;
  m["workload.create_ms"] = create_s * 1e3;
  std::vector<double> core_period_ms;
  double lios = 0.0, run_s = 0.0, hits = 0.0, physical = 0.0;
  double storage_sim_ns = 0.0, util_sum = 0.0, enclosures = 0.0;

  const auto factories = Policies(*b);
  for (size_t i = 0; i < factories.size(); ++i) {
    std::unique_ptr<es::policies::StoragePolicy> policy = factories[i]();
    auto* eco = dynamic_cast<es::core::EcoStoragePolicy*>(policy.get());
    const int run_id = rep_index * 10 + static_cast<int>(i);

    es::telemetry::profile::Profiler profiler;
    RunTrace trace(&profiler, run_id);
    TracedWorkload traced_wl(wl.value().get(), &trace);
    TracedPolicy traced_policy(policy.get(), &trace,
                               eco != nullptr ? "core" : "policies");
    es::replay::ExperimentConfig config;
    config.profiler = &profiler;
    es::replay::Experiment exp(&traced_wl, &traced_policy, config);
    const Clock::time_point start = Clock::now();
    auto metrics = exp.Run();
    const Clock::time_point end = Clock::now();
    const std::string label = b->Label(policy->name()) + "/traced";
    if (!metrics.ok()) {
      b->checker.Run(label, {"run failed: " + metrics.status().ToString()});
      continue;
    }
    const ExperimentMetrics& em = metrics.value();
    std::vector<std::string> errors =
        CheckInvariants(em, b->expected_records);
    const uint64_t fp = es::bench::MetricsFingerprint(em);
    if (i < b->first_fingerprint.size() && fp != b->first_fingerprint[i]) {
      errors.push_back("traced fingerprint " + Hex(fp) + " != untraced " +
                       Hex(b->first_fingerprint[i]));
    }
    if (trace.records != em.logical_ios) {
      errors.push_back("workload.records " + std::to_string(trace.records) +
                       " != logical_ios " + std::to_string(em.logical_ios));
    }
    b->checker.Run(label, errors);

    trace.AddSpan("replay.run", start, end);
    trace.AddSpan("replay.start", start, trace.reset_at);
    AppendProfilerSpans(profiler.Drain(), run_id, &trace.spans);
    const std::vector<int64_t> self = Nest(&trace.spans);
    std::map<std::string, double> total_ms, self_ms;
    for (size_t s = 0; s < trace.spans.size(); ++s) {
      const Span& sp = trace.spans[s];
      total_ms[sp.name] += static_cast<double>(sp.dur()) / 1e6;
      self_ms[sp.name] += static_cast<double>(self[s]) / 1e6;
      m["layer." + LayerOf(sp.name) + "_ms"] +=
          static_cast<double>(self[s]) / 1e6;
      if (sp.name == "core.period_end") {
        core_period_ms.push_back(static_cast<double>(sp.dur()) / 1e6);
      }
    }
    // Per-I/O calls are counted, not spanned: move their time out of the
    // span that was open when they ran.
    const double sink_ms = trace.sink_ns_estimate() / 1e6;
    const double hook_ingest_ms =
        static_cast<double>(trace.hook_ns_ingest) / 1e6;
    const double hook_finalize_ms =
        static_cast<double>(trace.hook_ns_finalize) / 1e6;
    m["layer.monitor_ms"] += sink_ms;
    m["layer.storage_sim_ms"] -= sink_ms + hook_ingest_ms;
    m["layer.policies_ms"] += hook_ingest_ms + hook_finalize_ms;
    m["layer.replay_ms"] -= hook_finalize_ms;
    storage_sim_ns += (self_ms["ingest"] - sink_ms - hook_ingest_ms) * 1e6;

    m["workload.records"] += static_cast<double>(trace.records);
    m["workload.next_batch_ms"] += total_ms["workload.next_batch"];
    m["monitor.sink_calls"] += static_cast<double>(trace.sink_calls);
    m["monitor.sink_ms"] += sink_ms;
    m["core.classify_finalize_ms"] += total_ms["classify_finalize"];
    m["core.plan_ms"] += total_ms["plan"];
    m["core.migrate_ms"] += total_ms["migrate"];
    m["core.flush_ms"] += total_ms["flush"];
    if (eco != nullptr) {
      m["core.placement_determinations"] +=
          static_cast<double>(eco->placement_determinations());
      m["core.incremental_replans"] +=
          static_cast<double>(eco->incremental_replans());
      m["core.placements_skipped"] +=
          static_cast<double>(eco->placements_skipped());
      m["core.classifier_peak_state_mib"] +=
          static_cast<double>(eco->classifier_peak_state_bytes()) /
          (1024.0 * 1024.0);
    } else {
      m["policies.placement_determinations"] +=
          static_cast<double>(em.placement_determinations);
    }
    m["policies.period_end_ms"] += total_ms["policies.period_end"];
    m["policies.physical_io_hook_calls"] +=
        static_cast<double>(trace.hook_calls);
    m["policies.physical_io_hook_ms"] +=
        static_cast<double>(trace.hook_ns_period_end + trace.hook_ns_ingest +
                            trace.hook_ns_finalize) /
        1e6;
    m["replay.run_ms"] += total_ms["replay.run"];
    m["replay.ingest_self_ms"] += self_ms["ingest"];
    m["replay.finalize_ms"] += total_ms["finalize"];
    m["replay.periods"] += static_cast<double>(em.monitoring_periods);
    m["replay.migration_requests"] +=
        static_cast<double>(trace.migration_requests);
    m["storage.spinups"] += static_cast<double>(em.spinups);
    m["sim.events"] += static_cast<double>(em.sim_events_executed);
    m["sim.cancelled"] += static_cast<double>(em.sim_events_cancelled);
    m["sim.peak_heap_depth"] = std::max(
        m["sim.peak_heap_depth"], static_cast<double>(em.sim_peak_heap_depth));

    lios += static_cast<double>(em.logical_ios);
    run_s += Seconds(end - start);
    hits += static_cast<double>(em.cache_hit_ios);
    physical += static_cast<double>(em.physical_batches);
    for (const auto& e : em.per_enclosure) util_sum += e.utilization;
    enclosures += static_cast<double>(em.per_enclosure.size());
    out.spans.insert(out.spans.end(), trace.spans.begin(), trace.spans.end());
  }

  auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  m["workload.ns_per_record"] =
      ratio(m["workload.next_batch_ms"] * 1e6, m["workload.records"]);
  m["monitor.sink_ns_per_lio"] = ratio(m["monitor.sink_ms"] * 1e6, lios);
  m["core.period_end_calls"] = static_cast<double>(core_period_ms.size());
  m["core.period_end_ms_p50"] = Median(core_period_ms);
  m["core.period_end_ms_max"] = Quantile(core_period_ms, 1.0);
  m["storage_sim.self_ns_per_lio"] = ratio(storage_sim_ns, lios);
  m["storage.cache_hit_ratio"] = ratio(hits, lios);
  m["storage.physical_per_lio"] = ratio(physical, lios);
  m["storage.util_mean"] = ratio(util_sum, enclosures);
  m["sim.events_per_lio"] = ratio(m["sim.events"], lios);
  out.lios_per_s = ratio(lios, run_s);
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(const Checker& checker, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checker.failed == 0 && checker.attempted > 0 ? "true" : "false",
              static_cast<long long>(checker.attempted),
              static_cast<long long>(checker.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintQuartiles(const char* name, const std::vector<double>& v,
                    const char* unit) {
  std::printf("  %-14s median %.6g  q1 %.6g  q3 %.6g  %s  (n=%zu)\n", name,
              Median(v), Quantile(v, 0.25), Quantile(v, 0.75), unit, v.size());
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d, \"run\": %d}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run_id);
  }
  std::fclose(f);
}

struct Args {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 50.0;
  int trace = 0;
  bool short_run = false;
  std::string fingerprints;
  std::string spans;
  std::optional<uint64_t> expect;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a.short_run = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (flag == "--fingerprints") {
      a.fingerprints = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--expect-fingerprint") {
      a.expect = std::strtoull(v.c_str(), &end, 16);
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

/// Default seed of each workload's generator config.
uint64_t DefaultSeed(const std::string& workload) {
  if (workload == "fileserver") return es::workload::FileServerConfig{}.seed;
  if (workload == "fleet") return es::workload::CloudBlockConfig{}.seed;
  return es::workload::OltpConfig{}.seed;
}

int Main(int argc, char** argv) {
  es::Logger::threshold = es::LogLevel::kWarn;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--fingerprints FILE] [--expect-fingerprint "
                 "HEX] [--short] [--spans FILE]\n");
    return 2;
  }
  Bench b;
  for (WorkloadSpec& spec : Workloads()) {
    if (spec.name == args->workload) b.spec = std::move(spec);
  }
  if (b.spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  b.seed = args->seed ? *args->seed : DefaultSeed(b.spec.name);
  b.short_run = args->short_run;
  b.recorded = LoadFingerprints(args->fingerprints);
  b.expect_override = args->expect;

  // Count the generated records once, outside any timed region: every
  // replay must complete exactly this many logical I/Os.
  {
    auto wl = b.spec.create(b.seed, b.short_run);
    if (!wl.ok()) {
      std::fprintf(stderr, "workload create failed: %s\n",
                   wl.status().ToString().c_str());
      return 1;
    }
    std::vector<es::trace::LogicalIoRecord> batch;
    while (wl.value()->NextBatch(&batch, 4096) > 0) {
      b.expected_records += static_cast<int64_t>(batch.size());
    }
    const auto& info = wl.value()->info();
    std::printf("workload %s seed=%llu: %d enclosures, %zu items, %.2f h "
                "simulated, %lld logical I/Os per replay, %zu replay(s) "
                "per repetition\n",
                b.spec.name.c_str(), static_cast<unsigned long long>(b.seed),
                info.num_enclosures, wl.value()->catalog().item_count(),
                static_cast<double>(info.duration) / es::kHour,
                static_cast<long long>(b.expected_records),
                b.spec.policies.size());
  }

  const std::vector<int> cpus = AllowedCpus();
  const Clock::time_point run_start = Clock::now();
  const Clock::time_point deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args->seconds));
  if (args->trace == 0) {
    // Repeat whole repetitions until the budget is spent (at least four).
    // Set-up takes micro- to milliseconds, so it is sampled many times in
    // the gap before each repetition (up to kSetupSamples, within a
    // hundredth of the budget), which spreads the samples over the whole
    // run. Allocator and host state can slow a whole gap of samples, so
    // the fastest sample stands for the set-up's own cost. The first
    // repetition runs with the default allocator and gives peak memory, so
    // that does not depend on how many repetitions fit in the budget; it
    // is a warm-up for throughput, which later repetitions measure with
    // the heap retained.
    std::vector<Rep> reps;
    std::vector<double> setup;
    double peak_rss_mib = 0.0;
    const Clock::duration gap = (deadline - run_start) / 100;
    while (reps.size() < 4 || Clock::now() < deadline) {
      PinForRepetition(cpus, reps.size());
      const Clock::time_point gap_end = Clock::now() + gap;
      for (size_t taken = 0;
           taken < kSetupSamples && (taken == 0 || Clock::now() < gap_end);
           ++taken) {
        std::optional<double> s = TimeSetup(b);
        if (!s) return 1;
        setup.push_back(*s);
      }
      std::optional<Rep> rep = RunPlain(&b);
      if (!rep) return 1;
      reps.push_back(std::move(*rep));
      if (reps.size() == 1) {
        peak_rss_mib = PeakRssMib();
        RetainHeap();
      }
    }
    std::vector<double> rate;
    std::printf("lios_per_s of each repetition (first untimed):");
    for (size_t i = 0; i < reps.size(); ++i) {
      if (i > 0) rate.push_back(reps[i].lios_per_s());
      std::printf(" %.0f", reps[i].lios_per_s());
    }
    std::printf("\n");
    // Sim metrics repeat exactly across repetitions (checked through the
    // fingerprints), so the first repetition reports them.
    const Rep& first = reps.front();
    es::Histogram responses;
    double power = 0.0;
    double migrated = 0.0;
    for (const RunResult& r : first.runs) {
      responses.Merge(r.metrics.response_us);
      power += r.metrics.avg_total_power;
      migrated += static_cast<double>(r.metrics.migrated_bytes);
      std::printf("fingerprint %s %s\n", Hex(r.fingerprint).c_str(),
                  b.Label(r.metrics.policy).c_str());
    }
    if (!first.runs.empty()) power /= static_cast<double>(first.runs.size());
    std::printf("host metrics over %zu repetitions:\n", reps.size());
    PrintQuartiles("lios_per_s", rate, "1/s");
    PrintQuartiles("setup_s", setup, "s");
    PrintJson(b.checker,
              {
                  {"lios_per_s", FastLiosPerS(reps, 1), "1/s"},
                  {"setup_s", Quantile(setup, 0.0), "s"},
                  {"peak_rss_mib", peak_rss_mib, "MiB"},
                  {"sim_power_w", power, "W"},
                  {"sim_resp_p50_ms", responses.Quantile(0.5) / 1e3, "ms"},
                  {"sim_resp_p999_ms", responses.Quantile(0.999) / 1e3, "ms"},
                  {"sim_migrated_gib", migrated / (1024.0 * 1024.0 * 1024.0),
                   "GiB"},
              });
    return 0;
  }

  // Traced mode: alternate untraced and traced repetitions so both see
  // the same host conditions; the untraced ones also fix the fingerprints
  // the traced runs must reproduce.
  std::vector<double> plain_rate, traced_rate;
  std::map<std::string, std::vector<double>> layer;
  std::vector<Span> last_spans;
  int rep_index = 0;
  while (traced_rate.size() < 2 || Clock::now() < deadline) {
    PinForRepetition(cpus, plain_rate.size());
    std::optional<Rep> plain = RunPlain(&b);
    if (!plain) return 1;
    if (plain_rate.empty()) RetainHeap();  // as in the untraced mode
    plain_rate.push_back(plain->lios_per_s());
    std::optional<TracedRep> traced = RunTraced(&b, rep_index++);
    if (!traced) return 1;
    traced_rate.push_back(traced->lios_per_s);
    for (const auto& [name, value] : traced->layer) {
      layer[name].push_back(value);
    }
    last_spans = std::move(traced->spans);
  }
  LayerMetrics med;
  for (const auto& [name, values] : layer) med[name] = Median(values);
  const double run_ms = med["replay.run_ms"];
  med["layer.unattributed_pct"] =
      run_ms > 0.0 ? 100.0 * med["layer.unattributed_ms"] / run_ms : 0.0;
  med["trace.overhead_pct"] =
      100.0 * (FastQuartile(plain_rate) / FastQuartile(traced_rate) - 1.0);

  std::printf("layer table (traced, median of %zu repetitions):\n",
              traced_rate.size());
  std::printf("  %-13s %12s %8s\n", "layer", "self_ms", "share");
  for (const char* name : kLayers) {
    const double ms = med[std::string("layer.") + name + "_ms"];
    std::printf("  %-13s %12.3f %7.2f%%\n", name, ms,
                run_ms > 0.0 ? 100.0 * ms / run_ms : 0.0);
  }
  std::printf("  %-13s %12.3f\n", "replay.run", run_ms);
  PrintQuartiles("untraced lios/s", plain_rate, "1/s");
  PrintQuartiles("traced lios/s", traced_rate, "1/s");
  std::printf("  trace.overhead_pct %.3f%%\n", med["trace.overhead_pct"]);
  if (!args->spans.empty()) WriteSpans(args->spans, last_spans);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetricUnits) {
    metrics.push_back({name, med[name], unit});
  }
  PrintJson(b.checker, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
