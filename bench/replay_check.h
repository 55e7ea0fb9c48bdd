#ifndef ECOSTORE_BENCH_REPLAY_CHECK_H_
#define ECOSTORE_BENCH_REPLAY_CHECK_H_

// Bit-identical replay regression gate for the per-I/O hot path.
//
// `bench_micro --record` replays a shortened version of every
// (workload, policy) pair of the bench_sweep grid and writes one 64-bit
// fingerprint of each run's ExperimentMetrics to bench/golden_replay.txt.
// `bench_micro --check` (registered as the `bench_replay_check` ctest)
// re-runs the grid and fails on any fingerprint mismatch, so a change
// that alters cache residency decisions, flush-demand aggregation,
// event ordering or energy accounting — however subtly — fails tier-1.
//
// The fingerprint folds in every deterministic field of the metrics.
// Two kinds of ordering are explicitly *not* part of the contract:
//  - idle_gaps are hashed as a sorted multiset: gap *values* are
//    physical, but their report order within one flush batch depends on
//    the cache's internal demand order;
//  - energy/power figures are quantized to 12 significant digits before
//    hashing: the energy integral accrues per physical submission, so
//    reordering same-time flush demands of one batch re-associates the
//    same FP addends and moves the last couple of ULPs. Every discrete
//    counter (I/O counts, spin-ups, migrations, histogram counts, gap
//    values) is still hashed exactly, so any real behaviour change —
//    which necessarily shifts those — fails the gate.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep_config.h"
#include "replay/metrics.h"
#include "replay/suite.h"
#include "telemetry/analysis/latency_histogram.h"
#include "telemetry/analysis/rolling_summary.h"
#include "telemetry/file_handle.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/recorder.h"
#include "telemetry/stream_consumer.h"

namespace ecostore::bench {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  /// Hashes a double through a 12-significant-digit decimal rendering,
  /// discarding summation-order ULP noise (see file header).
  void QuantF64(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    Bytes(buf, std::strlen(buf));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

inline void HashHistogram(const Histogram& h, Fnv1a* fnv) {
  fnv->I64(h.count());
  fnv->F64(h.sum());
  fnv->I64(h.min());
  fnv->I64(h.max());
  fnv->F64(h.Quantile(0.5));
  fnv->F64(h.Quantile(0.95));
  fnv->F64(h.Quantile(0.99));
}

/// Order-stable 64-bit digest of everything an experiment measured.
inline uint64_t MetricsFingerprint(const replay::ExperimentMetrics& m) {
  Fnv1a fnv;
  fnv.Str(m.workload);
  fnv.Str(m.policy);
  fnv.I64(m.duration);
  fnv.QuantF64(m.enclosure_energy);
  fnv.QuantF64(m.controller_energy);
  fnv.QuantF64(m.avg_enclosure_power);
  fnv.QuantF64(m.avg_controller_power);
  fnv.QuantF64(m.avg_total_power);
  HashHistogram(m.response_us, &fnv);
  HashHistogram(m.read_response_us, &fnv);
  fnv.F64(m.avg_response_ms);
  fnv.F64(m.avg_read_response_ms);
  fnv.I64(m.logical_ios);
  fnv.I64(m.logical_reads);
  fnv.I64(m.physical_batches);
  fnv.I64(m.cache_hit_ios);
  fnv.I64(m.migrated_bytes);
  fnv.I64(m.item_migrations);
  fnv.I64(m.block_migrations);
  fnv.I64(m.placement_determinations);
  fnv.I64(m.spinups);
  // Four passes over the merged per-tag map, emitting the exact byte
  // stream of the four separate maps it replaced (goldens predate the
  // merge). Tags without reads had no entry in the old sum/count maps,
  // hence the reads>0 filter on the first two passes.
  for (const auto& [tag, stats] : m.tag_stats) {
    if (stats.reads == 0) continue;
    fnv.I64(tag);
    fnv.F64(stats.read_response_us_sum);
  }
  for (const auto& [tag, stats] : m.tag_stats) {
    if (stats.reads == 0) continue;
    fnv.I64(tag);
    fnv.I64(stats.reads);
  }
  for (const auto& [tag, stats] : m.tag_stats) {
    fnv.I64(tag);
    fnv.I64(stats.first_issue);
  }
  for (const auto& [tag, stats] : m.tag_stats) {
    fnv.I64(tag);
    fnv.I64(stats.last_completion);
  }
  std::vector<SimDuration> gaps = m.idle_gaps;
  std::sort(gaps.begin(), gaps.end());
  fnv.U64(gaps.size());
  for (SimDuration g : gaps) fnv.I64(g);
  fnv.U64(m.per_enclosure.size());
  for (const auto& e : m.per_enclosure) {
    fnv.QuantF64(e.energy);
    fnv.I64(e.served_ios);
    fnv.I64(e.spinups);
    fnv.F64(e.utilization);
  }
  return fnv.hash();
}

struct ReplayCheckRun {
  std::string label;
  uint64_t fingerprint = 0;
};

/// Prints every fingerprinted field of one run — the debugging companion
/// to MetricsFingerprint for localising a check divergence. Enabled by
/// setting ECOSTORE_REPLAY_DUMP to a substring of the run labels.
inline void DumpMetrics(const std::string& label,
                        const replay::ExperimentMetrics& m) {
  std::printf("=== %s\n", label.c_str());
  std::printf("dur=%lld encE=%.17g ctlE=%.17g avgEncP=%.17g avgTotP=%.17g\n",
              static_cast<long long>(m.duration), m.enclosure_energy,
              m.controller_energy, m.avg_enclosure_power, m.avg_total_power);
  std::printf("resp: n=%lld sum=%.17g min=%lld max=%lld q50=%.17g q99=%.17g\n",
              static_cast<long long>(m.response_us.count()),
              m.response_us.sum(), static_cast<long long>(m.response_us.min()),
              static_cast<long long>(m.response_us.max()),
              m.response_us.Quantile(0.5), m.response_us.Quantile(0.99));
  std::printf("rresp: n=%lld sum=%.17g\n",
              static_cast<long long>(m.read_response_us.count()),
              m.read_response_us.sum());
  std::printf("lios=%lld lreads=%lld phys=%lld hits=%lld migB=%lld migI=%lld "
              "migBlk=%lld pdet=%lld spin=%lld\n",
              static_cast<long long>(m.logical_ios),
              static_cast<long long>(m.logical_reads),
              static_cast<long long>(m.physical_batches),
              static_cast<long long>(m.cache_hit_ios),
              static_cast<long long>(m.migrated_bytes),
              static_cast<long long>(m.item_migrations),
              static_cast<long long>(m.block_migrations),
              static_cast<long long>(m.placement_determinations),
              static_cast<long long>(m.spinups));
  std::vector<SimDuration> gaps = m.idle_gaps;
  std::sort(gaps.begin(), gaps.end());
  std::printf("gaps n=%zu:", gaps.size());
  for (SimDuration g : gaps) std::printf(" %lld", static_cast<long long>(g));
  std::printf("\n");
  for (const auto& e : m.per_enclosure) {
    std::printf("enc: E=%.17g ios=%lld spin=%lld util=%.17g\n", e.energy,
                static_cast<long long>(e.served_ios),
                static_cast<long long>(e.spinups), e.utilization);
  }
}

/// Sim duration of each check run: long enough for two EcoStoragePolicy
/// monitoring periods (520 s each) plus spin-down/preload activity,
/// short enough that the whole 26-run grid stays ctest-friendly.
inline constexpr SimDuration kReplayCheckDuration = 20 * kMinute;

/// Replays the full bench_sweep grid at the check duration and returns
/// one fingerprint per (row, policy) pair, in sweep print order.
inline Result<std::vector<ReplayCheckRun>> RunReplayCheckSuite() {
  workload::FileServerConfig wl;
  wl.duration = kReplayCheckDuration;
  std::vector<SweepSection> sections = SweepSections(wl);
  std::vector<replay::ExperimentJob> jobs = SweepJobs(sections);
  std::vector<std::string> labels = SweepJobLabels(sections);
  // Enclosure count per job, in SweepJobs order (base, eco per row): the
  // rolling ledger sizes its per-enclosure table from its meta alone.
  std::vector<int> job_enclosures;
  for (const SweepSection& section : sections) {
    for (const SweepRowSpec& row : section.rows) {
      job_enclosures.push_back(row.wl.num_enclosures);
      job_enclosures.push_back(row.wl.num_enclosures);
    }
  }

  // Every gate job runs with a telemetry recorder attached (full class
  // mask) AND a latency book, so passing the gate proves an instrumented
  // replay — including the analyzer's spun-down state probes — stays
  // bit-identical to the goldens; the goldens themselves were recorded
  // the same way, and observation must never change the outcome.
  //
  // Each job additionally attaches the live streaming pipeline (a
  // StreamDispatcher feeding a RollingSummary consumer): the engine pumps
  // the recorder mid-run, the incremental ledger folds every window, and
  // the fingerprints must STILL match goldens recorded without any
  // consumer — the acceptance bar for live observability is that
  // watching a replay cannot change it.
  // Each job also attaches a wall-clock phase profiler (DESIGN.md §15):
  // the gate thereby proves that profiling a replay cannot change its
  // results.
  std::vector<std::unique_ptr<telemetry::Recorder>> recorders;
  std::vector<std::unique_ptr<telemetry::analysis::LatencyBook>> books;
  std::vector<std::unique_ptr<telemetry::StreamDispatcher>> streams;
  std::vector<std::unique_ptr<telemetry::analysis::RollingSummary>> rollers;
  std::vector<std::unique_ptr<telemetry::profile::Profiler>> profilers;
  recorders.reserve(jobs.size());
  books.reserve(jobs.size());
  streams.reserve(jobs.size());
  rollers.reserve(jobs.size());
  profilers.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    replay::ExperimentJob& job = jobs[j];
    recorders.push_back(
        std::make_unique<telemetry::Recorder>(telemetry::kClassAll));
    books.push_back(std::make_unique<telemetry::analysis::LatencyBook>());
    job.config.telemetry = recorders.back().get();
    job.config.latency_book = books.back().get();

    telemetry::ExportMeta pre_meta;
    pre_meta.num_enclosures = job_enclosures[j];
    pre_meta.duration = kReplayCheckDuration;
    telemetry::analysis::RollingSummary::Options ropt;
    ropt.window_us = 5 * kMinute;
    ropt.retention = 4;  // bounded on purpose: the gate only needs folding
    rollers.push_back(std::make_unique<telemetry::analysis::RollingSummary>(
        pre_meta, ropt));
    streams.push_back(std::make_unique<telemetry::StreamDispatcher>());
    streams.back()->AddConsumer(rollers.back().get());
    job.config.stream = streams.back().get();
    job.config.stream_window_us = ropt.window_us;

    profilers.push_back(std::make_unique<telemetry::profile::Profiler>());
    job.config.profiler = profilers.back().get();
  }

  // One suite worker on purpose: the gate compares bit-exact
  // fingerprints, so it must not depend on the cross-experiment thread
  // pool (PR 1 proved parallel == serial, but the gate should not assume
  // what it could itself be testing).
  auto runs = replay::RunExperiments(jobs, replay::SuiteOptions{1});
  if (!runs.ok()) return runs.status();
  // The proposed-method rows spin enclosures down, so the live ledgers
  // must have folded off-windows; none means they skipped every power
  // event and the gate would cover far less than it claims.
  size_t off_windows = 0;
  for (const auto& roller : rollers) {
    off_windows += roller->ledger().exact().off_windows.size();
  }
  if (off_windows == 0) {
    return Status::Internal(
        "replay check: the rolling ledgers folded no off-windows");
  }

  const char* dump = std::getenv("ECOSTORE_REPLAY_DUMP");
  std::vector<ReplayCheckRun> out;
  for (size_t i = 0; i < runs.value().size(); ++i) {
    if (dump != nullptr && labels[i].find(dump) != std::string::npos) {
      DumpMetrics(labels[i], runs.value()[i]);
    }
    out.push_back(ReplayCheckRun{labels[i],
                                 MetricsFingerprint(runs.value()[i])});
  }
  return out;
}

inline bool SaveGoldenFingerprints(const std::string& path,
                                   const std::vector<ReplayCheckRun>& runs) {
  telemetry::FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return false;
  std::fprintf(f.get(),
               "# Golden ExperimentMetrics fingerprints for "
               "`bench_micro --check` (see bench/replay_check.h).\n"
               "# Regenerate with `bench_micro --record` ONLY when a "
               "behaviour change is intended and reviewed.\n");
  for (const ReplayCheckRun& run : runs) {
    std::fprintf(f.get(), "%016llx %s\n",
                 static_cast<unsigned long long>(run.fingerprint),
                 run.label.c_str());
  }
  return telemetry::CloseWritten(std::move(f), path).ok();
}

inline bool LoadGoldenFingerprints(const std::string& path,
                                   std::vector<ReplayCheckRun>* runs) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  runs->clear();
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#' || line[0] == '\n') continue;
    unsigned long long fp = 0;
    int consumed = 0;
    if (std::sscanf(line, "%llx %n", &fp, &consumed) != 1) continue;
    std::string label(line + consumed);
    while (!label.empty() && (label.back() == '\n' || label.back() == '\r')) {
      label.pop_back();
    }
    runs->push_back(ReplayCheckRun{label, fp});
  }
  std::fclose(f);
  return true;
}

/// Runs the grid and compares against the goldens at `path`. Returns the
/// process exit code (0 == bit-identical).
inline int ReplayCheckMain(const std::string& path, bool record) {
  auto runs = RunReplayCheckSuite();
  if (!runs.ok()) {
    std::fprintf(stderr, "replay check suite failed: %s\n",
                 runs.status().ToString().c_str());
    return 1;
  }
  if (record) {
    if (!SaveGoldenFingerprints(path, runs.value())) {
      std::fprintf(stderr, "cannot write goldens to %s\n", path.c_str());
      return 1;
    }
    std::printf("recorded %zu golden fingerprints -> %s\n",
                runs.value().size(), path.c_str());
    return 0;
  }
  std::vector<ReplayCheckRun> golden;
  if (!LoadGoldenFingerprints(path, &golden)) {
    std::fprintf(stderr,
                 "cannot read goldens from %s (run `bench_micro --record` "
                 "from the repo root first)\n",
                 path.c_str());
    return 1;
  }
  if (golden.size() != runs.value().size()) {
    std::fprintf(stderr, "golden count %zu != run count %zu\n",
                 golden.size(), runs.value().size());
    return 1;
  }
  int mismatches = 0;
  for (size_t i = 0; i < golden.size(); ++i) {
    const ReplayCheckRun& want = golden[i];
    const ReplayCheckRun& got = runs.value()[i];
    if (want.label != got.label || want.fingerprint != got.fingerprint) {
      std::fprintf(stderr,
                   "MISMATCH [%zu]: golden %016llx (%s) vs got %016llx "
                   "(%s)\n",
                   i, static_cast<unsigned long long>(want.fingerprint),
                   want.label.c_str(),
                   static_cast<unsigned long long>(got.fingerprint),
                   got.label.c_str());
      mismatches++;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "%d of %zu replay fingerprints diverged from golden — the "
                 "per-I/O hot path changed observable behaviour\n",
                 mismatches, golden.size());
    return 1;
  }
  std::printf("replay check: %zu/%zu fingerprints bit-identical\n",
              golden.size(), golden.size());
  return 0;
}

}  // namespace ecostore::bench

#endif  // ECOSTORE_BENCH_REPLAY_CHECK_H_
