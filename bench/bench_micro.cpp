// Google-benchmark microbenchmarks for the hot code paths: the event
// loop, the cache, interval analysis, the classifier and the placement
// planner. These bound the monitoring overhead the paper argues is small
// (§III-A, §VII-D).
//
// In addition to the google-benchmark suite, main() times the per-period
// classification hot path on a real file-server monitoring period — both
// the current streaming implementation and the pre-optimisation
// vector-of-vectors gather (replicated below) — and writes the results to
// BENCH_perf.json (override the path with --json=<path> or the
// ECOSTORE_BENCH_JSON env var) so the perf trajectory is tracked across
// PRs. `bench_micro --json` runs only that measurement pass.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/legacy_cache.h"
#include "bench/legacy_classifier.h"
#include "bench/legacy_planner.h"
#include "bench/legacy_simulator.h"
#include "bench/replay_check.h"
#include "common/random.h"
#include "core/eco_storage_policy.h"
#include "core/pattern_classifier.h"
#include "core/placement_planner.h"
#include "policies/basic_policies.h"
#include "replay/experiment.h"
#include "replay/suite.h"
#include "sim/simulator.h"
#include "storage/disk_enclosure.h"
#include "storage/storage_cache.h"
#include "telemetry/profile/profile_export.h"
#include "telemetry/profile/profiler.h"
#include "telemetry/recorder.h"
#include "trace/trace_stats.h"
#include "workload/file_server_workload.h"
#include "workload/oltp_workload.h"

namespace ecostore {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    benchmark::DoNotOptimize(sim.RunAll());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

/// The PR-2 engine (bench/legacy_simulator.h): heap entries carry the
/// std::function, so every sift moves it along with the key.
void BM_SimulatorScheduleRunLegacy(benchmark::State& state) {
  for (auto _ : state) {
    legacy::LegacySimulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i, [] {});
    }
    benchmark::DoNotOptimize(sim.RunAll());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRunLegacy);

void BM_CacheReadHit(benchmark::State& state) {
  storage::CacheConfig config;
  storage::StorageCache cache(config);
  std::vector<storage::FlushDemand> scratch;
  cache.Read(1, 0, 65536, &scratch);  // warm the blocks
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Read(1, 0, 65536, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheReadHit);

void BM_CacheWriteAbsorb(benchmark::State& state) {
  storage::CacheConfig config;
  storage::StorageCache cache(config);
  std::vector<storage::FlushDemand> scratch;
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Write(1, rng.UniformInt(0, 1 << 20) * 4096, 4096, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheWriteAbsorb);

// ---------------------------------------------------------------------
// Cache read/write mix: the identical operation stream through the slab
// cache and through the pre-rewrite map/list implementation
// (bench/legacy_cache.h), with every aggregate asserted equal before the
// throughputs are compared — the PR-1 ClassifyLegacy pattern.
// ---------------------------------------------------------------------

struct CacheMixOp {
  bool write = false;
  DataItemId item = 0;
  int64_t offset = 0;
  int32_t size = 0;
};

/// One cache stream: the cache configuration, its write-delay items and
/// the operations replayed through it.
struct CacheMix {
  storage::CacheConfig config;
  std::unordered_set<DataItemId> write_delay_items;
  std::vector<CacheMixOp> ops;
};

CacheMix MakeCacheMix(size_t n) {
  // 64 items x 256 hot blocks against a ~1.5k-block general area: an
  // eviction- and destage-heavy mix, with items 1-3 write-delayed.
  CacheMix mix;
  mix.config.block_size = 4096;
  mix.config.total_bytes = 2048 * 4096;
  mix.config.preload_area_bytes = 256 * 4096;
  mix.config.write_delay_area_bytes = 256 * 4096;
  mix.write_delay_items = {1, 2, 3};
  Xoshiro256 rng(7);
  mix.ops.resize(n);
  for (CacheMixOp& op : mix.ops) {
    op.write = rng.Bernoulli(0.4);
    op.item = static_cast<DataItemId>(rng.UniformInt(0, 63));
    op.offset = rng.UniformInt(0, 255) * 4096;
    op.size = 4096;
  }
  return mix;
}

constexpr int kOltpMixItems = 10;
constexpr int64_t kOltpMixItemBytes = 3 * kGiB;

/// The OLTP shape of the oltp-baselines benchmark: 8 KiB random I/O, 55%
/// writes, over 10 items of 3 GiB against the default (Table II) cache, so
/// nearly every I/O misses and evicts a 64 KiB block, and the general
/// area destages whenever 10% of it is dirty.
CacheMix MakeOltpCacheMix(size_t n) {
  CacheMix mix;
  Xoshiro256 rng(11);
  mix.ops.resize(n);
  for (CacheMixOp& op : mix.ops) {
    op.write = rng.Bernoulli(0.55);
    op.item = static_cast<DataItemId>(rng.UniformInt(0, kOltpMixItems - 1));
    op.offset = rng.UniformInt(0, kOltpMixItemBytes / 8192 - 1) * 8192;
    op.size = 8192;
  }
  return mix;
}

struct CacheMixTotals {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t absorbed = 0;
  int64_t demand_blocks = 0;
  int64_t demand_bytes = 0;

  bool operator==(const CacheMixTotals& o) const {
    return hits == o.hits && misses == o.misses && absorbed == o.absorbed &&
           demand_blocks == o.demand_blocks && demand_bytes == o.demand_bytes;
  }
};

CacheMixTotals RunCacheMixSlab(const CacheMix& mix) {
  storage::StorageCache cache(mix.config);
  cache.SetWriteDelayItems(mix.write_delay_items);
  std::vector<storage::FlushDemand> scratch;
  CacheMixTotals totals;
  auto consume = [&] {
    for (const auto& d : scratch) {
      totals.demand_blocks += d.blocks;
      totals.demand_bytes += d.bytes;
    }
  };
  for (const CacheMixOp& op : mix.ops) {
    if (op.write) {
      cache.Write(op.item, op.offset, op.size, &scratch);
      consume();
    } else {
      auto out = cache.Read(op.item, op.offset, op.size, &scratch);
      totals.hits += out.hit_blocks;
      totals.misses += out.miss_blocks;
      consume();
    }
  }
  for (const auto& d : cache.FlushAll()) {
    totals.demand_blocks += d.blocks;
    totals.demand_bytes += d.bytes;
  }
  totals.absorbed = cache.absorbed_write_blocks();
  return totals;
}

CacheMixTotals RunCacheMixLegacy(const CacheMix& mix) {
  legacy::LegacyStorageCache cache(mix.config);
  cache.SetWriteDelayItems(mix.write_delay_items);
  CacheMixTotals totals;
  for (const CacheMixOp& op : mix.ops) {
    if (op.write) {
      auto out = cache.Write(op.item, op.offset, op.size);
      for (const auto& d : out.destage) {
        totals.demand_blocks += d.blocks;
        totals.demand_bytes += d.bytes;
      }
    } else {
      auto out = cache.Read(op.item, op.offset, op.size);
      totals.hits += out.hit_blocks;
      totals.misses += out.miss_blocks;
      for (const auto& d : out.eviction_flushes) {
        totals.demand_blocks += d.blocks;
        totals.demand_bytes += d.bytes;
      }
    }
  }
  for (const auto& d : cache.FlushAll()) {
    totals.demand_blocks += d.blocks;
    totals.demand_bytes += d.bytes;
  }
  totals.absorbed = cache.absorbed_write_blocks();
  return totals;
}

void BM_IntervalAnalysis(benchmark::State& state) {
  Xoshiro256 rng(2);
  std::vector<std::pair<SimTime, bool>> ios;
  SimTime t = 0;
  for (int i = 0; i < state.range(0); ++i) {
    t += rng.UniformInt(1, 2 * kSecond);
    ios.emplace_back(t, rng.Bernoulli(0.6));
  }
  core::IntervalProfile profile;
  for (auto _ : state) {
    core::AnalyzeIntervalsInto(ios, 0, t + kSecond, 52 * kSecond, &profile);
    benchmark::DoNotOptimize(profile);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalAnalysis)->Arg(100)->Arg(10000);

// ---------------------------------------------------------------------
// Classification: synthetic uniform trace and a real file-server period.
// ---------------------------------------------------------------------

/// The pre-optimisation classifier hot path, kept verbatim as the
/// regression reference: per period it materialised one vector of
/// (time, is_read) pairs PER CATALOG ITEM and copied every profile.
core::ClassificationResult ClassifyLegacy(
    const core::PatternClassifier::Options& options,
    const trace::LogicalTraceBuffer& buffer,
    const storage::DataItemCatalog& catalog, SimTime period_start,
    SimTime period_end) {
  core::ClassificationResult result;
  result.items.resize(catalog.item_count());

  std::vector<std::vector<std::pair<SimTime, bool>>> per_item(
      catalog.item_count());
  std::vector<std::pair<int64_t, int64_t>> bytes(catalog.item_count(),
                                                 {0, 0});
  for (const trace::LogicalIoRecord& rec : buffer.records()) {
    if (rec.item < 0 ||
        static_cast<size_t>(rec.item) >= catalog.item_count()) {
      continue;
    }
    auto idx = static_cast<size_t>(rec.item);
    per_item[idx].emplace_back(rec.time, rec.is_read());
    if (rec.is_read()) {
      bytes[idx].first += rec.size;
    } else {
      bytes[idx].second += rec.size;
    }
  }

  double period_seconds = ToSeconds(period_end - period_start);
  double long_interval_sum = 0.0;
  int64_t long_interval_count = 0;

  for (size_t i = 0; i < catalog.item_count(); ++i) {
    core::ItemClassification& cls = result.items[i];
    cls.item = static_cast<DataItemId>(i);
    cls.size_bytes = catalog.item(cls.item).size_bytes;
    cls.read_bytes = bytes[i].first;
    cls.write_bytes = bytes[i].second;

    core::IntervalProfile profile = core::AnalyzeIntervals(
        per_item[i], period_start, period_end, options.break_even);
    cls.reads = profile.total_reads();
    cls.writes = profile.total_writes();
    cls.avg_iops = period_seconds > 0
                       ? static_cast<double>(cls.total_ios()) / period_seconds
                       : 0.0;
    cls.long_interval_count =
        static_cast<int64_t>(profile.long_intervals.size());

    for (SimDuration li : profile.long_intervals) {
      long_interval_sum += static_cast<double>(li);
      long_interval_count++;
    }

    if (per_item[i].empty()) {
      cls.pattern = core::IoPattern::kP0;
    } else if (profile.long_intervals.empty()) {
      cls.pattern = core::IoPattern::kP3;
    } else if (cls.reads * 2 > cls.total_ios()) {
      cls.pattern = core::IoPattern::kP1;
    } else {
      cls.pattern = core::IoPattern::kP2;
    }
    result.pattern_counts[static_cast<size_t>(cls.pattern)]++;
  }

  if (long_interval_count > 0) {
    result.mean_long_interval = static_cast<SimDuration>(
        long_interval_sum / static_cast<double>(long_interval_count));
  }

  trace::IopsSeries p3_series(
      period_start, std::max(period_end, period_start + 1),
      options.iops_bucket);
  bool any_p3 = false;
  for (size_t i = 0; i < result.items.size(); ++i) {
    if (result.items[i].pattern != core::IoPattern::kP3) continue;
    any_p3 = true;
    for (const auto& [t, is_read] : per_item[i]) {
      (void)is_read;
      p3_series.Add(t);
    }
  }
  result.p3_max_iops = any_p3 ? p3_series.MaxIops() : 0.0;
  return result;
}

/// One monitoring period (the paper's initial 520 s) of the file-server
/// workload, replayed into a trace buffer once and shared by the
/// classification benchmarks.
struct FileServerPeriod {
  storage::DataItemCatalog catalog;
  trace::LogicalTraceBuffer buffer;
  SimTime period_end = 520 * kSecond;

  static const FileServerPeriod& Get() {
    static FileServerPeriod* period = [] {
      auto* p = new FileServerPeriod();
      workload::FileServerConfig config;
      config.duration = p->period_end;
      auto workload = workload::FileServerWorkload::Create(config);
      if (!workload.ok()) {
        std::fprintf(stderr, "file-server workload: %s\n",
                     workload.status().ToString().c_str());
        std::abort();
      }
      trace::LogicalIoRecord rec;
      while (workload.value()->Next(&rec)) p->buffer.Append(rec);
      // The catalog outlives the workload via a copy.
      p->catalog = workload.value()->catalog();
      return p;
    }();
    return *period;
  }
};

// ---------------------------------------------------------------------
// Workload streaming: Next() one record at a time vs NextBatch() — the
// feed half of the batched replay loop.
// ---------------------------------------------------------------------

/// The file-server generator for one monitoring period, shared by the
/// stream benchmarks (Reset() rewinds it deterministically).
workload::FileServerWorkload* StreamBenchWorkload() {
  static workload::FileServerWorkload* w = [] {
    workload::FileServerConfig config;
    config.duration = 520 * kSecond;
    auto workload = workload::FileServerWorkload::Create(config);
    if (!workload.ok()) {
      std::fprintf(stderr, "stream bench workload: %s\n",
                   workload.status().ToString().c_str());
      std::abort();
    }
    return workload.value().release();
  }();
  return w;
}

void BM_FileServerStreamNext(benchmark::State& state) {
  workload::FileServerWorkload* w = StreamBenchWorkload();
  int64_t records = 0;
  for (auto _ : state) {
    w->Reset();
    trace::LogicalIoRecord rec;
    records = 0;
    while (w->Next(&rec)) {
      benchmark::DoNotOptimize(rec);
      records++;
    }
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_FileServerStreamNext);

void BM_FileServerStreamNextBatch(benchmark::State& state) {
  workload::FileServerWorkload* w = StreamBenchWorkload();
  std::vector<trace::LogicalIoRecord> batch;
  batch.reserve(256);
  int64_t records = 0;
  for (auto _ : state) {
    w->Reset();
    records = 0;
    while (w->NextBatch(&batch, 256) > 0) {
      benchmark::DoNotOptimize(batch.data());
      records += static_cast<int64_t>(batch.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_FileServerStreamNextBatch);

void BM_ClassifyFileServerPeriod(benchmark::State& state) {
  const FileServerPeriod& period = FileServerPeriod::Get();
  core::PatternClassifier classifier(
      core::PatternClassifier::Options{52 * kSecond, 1 * kSecond});
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Classify(
        period.buffer, period.catalog, 0, period.period_end));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(period.buffer.size()));
}
BENCHMARK(BM_ClassifyFileServerPeriod);

void BM_ClassifyFileServerPeriodLegacy(benchmark::State& state) {
  const FileServerPeriod& period = FileServerPeriod::Get();
  core::PatternClassifier::Options options{52 * kSecond, 1 * kSecond};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ClassifyLegacy(
        options, period.buffer, period.catalog, 0, period.period_end));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(period.buffer.size()));
}
BENCHMARK(BM_ClassifyFileServerPeriodLegacy);

void BM_PatternClassifier(benchmark::State& state) {
  const int n_items = static_cast<int>(state.range(0));
  storage::DataItemCatalog catalog;
  VolumeId v = catalog.AddVolume(0);
  for (int i = 0; i < n_items; ++i) {
    catalog.AddItem("i" + std::to_string(i), v, 1 << 20,
                    storage::DataItemKind::kFile);
  }
  trace::LogicalTraceBuffer buffer;
  Xoshiro256 rng(3);
  SimTime t = 0;
  for (int k = 0; k < 100000; ++k) {
    t += rng.UniformInt(1, 10 * kMillisecond);
    trace::LogicalIoRecord rec;
    rec.time = t;
    rec.item = static_cast<DataItemId>(rng.UniformInt(0, n_items - 1));
    rec.size = 8192;
    rec.type = rng.Bernoulli(0.6) ? IoType::kRead : IoType::kWrite;
    buffer.Append(rec);
  }
  core::PatternClassifier classifier(
      core::PatternClassifier::Options{52 * kSecond, 1 * kSecond});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.Classify(buffer, catalog, 0, t + kSecond));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PatternClassifier)->Arg(100)->Arg(2000);

void BM_PlacementPlanner(benchmark::State& state) {
  const int n_items = static_cast<int>(state.range(0));
  const int n_enclosures = 12;
  storage::DataItemCatalog catalog;
  for (int e = 0; e < n_enclosures; ++e) catalog.AddVolume(e);
  core::ClassificationResult result;
  Xoshiro256 rng(4);
  for (int i = 0; i < n_items; ++i) {
    auto pattern = static_cast<core::IoPattern>(rng.UniformInt(0, 3));
    DataItemId id =
        catalog
            .AddItem("i" + std::to_string(i),
                     static_cast<VolumeId>(rng.UniformInt(
                         0, n_enclosures - 1)),
                     rng.UniformInt(1, 1000) * 1024 * 1024,
                     storage::DataItemKind::kFile)
            .value();
    core::ItemClassification cls;
    cls.item = id;
    cls.pattern = pattern;
    cls.size_bytes = catalog.item(id).size_bytes;
    cls.avg_iops = pattern == core::IoPattern::kP3
                       ? static_cast<double>(rng.UniformInt(1, 50))
                       : 1.0;
    result.items.push_back(cls);
    if (pattern == core::IoPattern::kP3) result.p3_max_iops += cls.avg_iops;
  }
  storage::BlockVirtualization virt(&catalog, n_enclosures,
                                    1700LL * 1024 * 1024 * 1024);
  if (!virt.PlaceInitial().ok()) {
    state.SkipWithError("placement failed");
    return;
  }
  core::HotColdPlanner hot_cold(
      core::HotColdPlanner::Options{900.0, virt.capacity_bytes()});
  core::PlacementPlanner planner(
      core::PlacementPlanner::Options{900.0, virt.capacity_bytes()},
      &hot_cold);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(result, virt));
  }
  state.SetItemsProcessed(state.iterations() * n_items);
}
BENCHMARK(BM_PlacementPlanner)->Arg(100)->Arg(2000);

void BM_EnclosureSubmit(benchmark::State& state) {
  storage::EnclosureConfig config;
  storage::DiskEnclosure enc(0, config);
  SimTime t = 0;
  for (auto _ : state) {
    t += 1000;
    benchmark::DoNotOptimize(
        enc.SubmitIo(t, 1, 8192, IoType::kRead, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnclosureSubmit);

// ---------------------------------------------------------------------
// BENCH_perf.json: manually timed classification throughput (events/s)
// on the file-server period, current vs legacy, for cross-PR tracking.
// ---------------------------------------------------------------------

}  // namespace

// ---------------------------------------------------------------------
// End-to-end replay throughput: a whole Experiment (cache + simulator +
// policy + migration engine) on a 20-minute file-server trace, measured
// in logical I/Os per wall second. Non-anonymous so main() can reach it.
// ---------------------------------------------------------------------

struct ReplayFigure {
  int64_t logical_ios = 0;
  double lios_per_sec = 0.0;
  uint64_t fingerprint = 0;
  int64_t rolling_windows = 0;  ///< kLiveConsumer runs: windows folded
  int64_t rolling_off_windows = 0;  ///< kLiveConsumer runs: off-windows
  int64_t sim_events_executed = 0;
  int64_t sim_peak_heap_depth = 0;
};

/// Runs `run_once` once untimed, then repeatedly for at least two wall
/// seconds; returns the timed runs per second.
template <typename RunOnce>
double RunsPerSecond(RunOnce&& run_once) {
  using Clock = std::chrono::steady_clock;
  run_once();  // warm-up
  int64_t calls = 0;
  auto start = Clock::now();
  double elapsed = 0.0;
  do {
    run_once();
    calls++;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 2.0);
  return static_cast<double>(calls) / elapsed;
}

/// How MeasureReplayThroughput instruments the replay. The two kLive*
/// modes construct a fresh recorder (and, for kLiveConsumer, a fresh
/// StreamDispatcher + RollingSummary) inside every timed run so the
/// only difference between the live_ledger_overhead arms is the
/// streaming consumer itself.
enum class ReplayInstrument {
  kPassedRecorder,  ///< attach `recorder` (may be null): legacy behaviour
  kLiveRecorder,    ///< fresh per-run recorder, no stream consumer
  kLiveConsumer,    ///< fresh per-run recorder + dispatcher + RollingSummary
};

ReplayFigure MeasureReplayThroughput(
    bool eco, telemetry::Recorder* recorder = nullptr,
    ReplayInstrument instrument = ReplayInstrument::kPassedRecorder,
    telemetry::profile::Profiler* profiler = nullptr) {
  workload::FileServerConfig wl;
  wl.duration = 20 * kMinute;
  auto workload = workload::FileServerWorkload::Create(wl);
  if (!workload.ok()) {
    std::fprintf(stderr, "replay bench workload: %s\n",
                 workload.status().ToString().c_str());
    std::abort();
  }

  ReplayFigure figure;
  auto run_once = [&] {
    // Keep only the last run's spans: the ring survives across the repeat
    // loop, and the export/stat consumers want one run, not an overlay.
    if (profiler != nullptr) profiler->Drain();
    std::unique_ptr<policies::StoragePolicy> policy;
    if (eco) {
      policy = std::make_unique<core::EcoStoragePolicy>(
          core::PowerManagementConfig{});
    } else {
      policy = std::make_unique<policies::NoPowerSavingPolicy>();
    }
    replay::ExperimentConfig config;
    config.profiler = profiler;
    telemetry::Recorder local_recorder;
    telemetry::StreamDispatcher dispatcher;
    std::unique_ptr<telemetry::analysis::RollingSummary> rolling;
    if (instrument == ReplayInstrument::kPassedRecorder) {
      config.telemetry = recorder;
    } else {
      config.telemetry = &local_recorder;
      if (instrument == ReplayInstrument::kLiveConsumer) {
        // The ledger sizes its per-enclosure table from the meta alone;
        // without num_enclosures it would skip every power event.
        telemetry::ExportMeta pre_meta;
        pre_meta.num_enclosures = workload.value()->info().num_enclosures;
        pre_meta.duration = wl.duration;
        telemetry::analysis::RollingSummary::Options ropt;
        ropt.window_us = kMinute;
        ropt.retention = 4;
        rolling = std::make_unique<telemetry::analysis::RollingSummary>(
            pre_meta, ropt);
        dispatcher.AddConsumer(rolling.get());
        config.stream = &dispatcher;
        config.stream_window_us = ropt.window_us;
      }
    }
    replay::Experiment experiment(workload.value().get(), policy.get(),
                                  config);
    auto metrics = experiment.Run();
    if (!metrics.ok()) {
      std::fprintf(stderr, "replay bench run: %s\n",
                   metrics.status().ToString().c_str());
      std::abort();
    }
    figure.logical_ios = metrics.value().logical_ios;
    figure.fingerprint = bench::MetricsFingerprint(metrics.value());
    figure.rolling_windows =
        rolling != nullptr ? rolling->windows_closed() : 0;
    figure.rolling_off_windows =
        rolling != nullptr
            ? static_cast<int64_t>(rolling->ledger().exact().off_windows.size())
            : 0;
  };

  const double runs_per_sec = RunsPerSecond(run_once);
  figure.lios_per_sec = static_cast<double>(figure.logical_ios) * runs_per_sec;
  return figure;
}

/// Replay throughput of one paper baseline (`policy_index` into
/// PaperPolicySet: 2 = PDC, 3 = DDR) on a 5-minute OLTP trace, where
/// every enclosure (PDC) or every cold one (DDR) may spin down, plus the
/// event-engine counters of the run. Aborts if a repeat's outcome differs
/// from the first run's.
ReplayFigure MeasureOltpBaselineReplay(size_t policy_index) {
  workload::OltpConfig wl;
  wl.duration = 5 * kMinute;
  auto workload = workload::OltpWorkload::Create(wl);
  if (!workload.ok()) {
    std::fprintf(stderr, "oltp replay bench workload: %s\n",
                 workload.status().ToString().c_str());
    std::abort();
  }
  const replay::PolicyFactory factory =
      replay::PaperPolicySet(core::PowerManagementConfig{})[policy_index];
  ReplayFigure figure;
  auto run_once = [&] {
    std::unique_ptr<policies::StoragePolicy> policy = factory();
    replay::Experiment experiment(workload.value().get(), policy.get(),
                                  replay::ExperimentConfig{});
    auto metrics = experiment.Run();
    if (!metrics.ok()) {
      std::fprintf(stderr, "oltp replay bench run: %s\n",
                   metrics.status().ToString().c_str());
      std::abort();
    }
    const uint64_t fingerprint = bench::MetricsFingerprint(metrics.value());
    if (figure.fingerprint != 0 && fingerprint != figure.fingerprint) {
      std::fprintf(stderr, "oltp replay bench: non-deterministic outcome\n");
      std::abort();
    }
    figure.fingerprint = fingerprint;
    figure.logical_ios = metrics.value().logical_ios;
    figure.sim_events_executed = metrics.value().sim_events_executed;
    figure.sim_peak_heap_depth = metrics.value().sim_peak_heap_depth;
  };
  const double runs_per_sec = RunsPerSecond(run_once);
  figure.lios_per_sec = static_cast<double>(figure.logical_ios) * runs_per_sec;
  return figure;
}

namespace {

// ---------------------------------------------------------------------
// planner_scale: the indexed placement planner vs the frozen stable_sort
// reference (bench/legacy_planner.h) on synthetic fleets, gated on the
// two producing bit-identical plans. The fixture scatters a P3 head over
// the fleet so ~85% of P3 items start on cold enclosures (the Algorithm
// 2 mover population), and fills enclosures to ~65% so a fraction of the
// placements needs Algorithm 3 evictions.
// ---------------------------------------------------------------------

struct PlannerScaleFixture {
  storage::DataItemCatalog catalog;
  core::ClassificationResult result;
  std::unique_ptr<storage::BlockVirtualization> virt;
  int64_t movers = 0;  ///< P3 items initially on cold enclosures
};

PlannerScaleFixture MakePlannerScaleFixture(int n_enclosures,
                                            int items_per_enclosure) {
  PlannerScaleFixture fx;
  for (int e = 0; e < n_enclosures; ++e) {
    fx.catalog.AddVolume(static_cast<EnclosureId>(e));
  }
  const int n_items = n_enclosures * items_per_enclosure;
  Xoshiro256 rng(0x9e3779b97f4a7c15ull + static_cast<uint64_t>(n_items));
  double p3_iops_sum = 0.0;
  for (int i = 0; i < n_items; ++i) {
    const bool p3 = rng.NextDouble() < 0.03;
    auto pattern = p3 ? core::IoPattern::kP3
                      : static_cast<core::IoPattern>(rng.UniformInt(0, 2));
    DataItemId id =
        fx.catalog
            .AddItem("i" + std::to_string(i),
                     static_cast<VolumeId>(
                         rng.UniformInt(0, n_enclosures - 1)),
                     rng.UniformInt(16, 160) * (128LL * 1024 * 1024),
                     storage::DataItemKind::kFile)
            .value();
    core::ItemClassification cls;
    cls.item = id;
    cls.pattern = pattern;
    cls.size_bytes = fx.catalog.item(id).size_bytes;
    cls.avg_iops = p3 ? static_cast<double>(rng.UniformInt(1, 50)) : 0.2;
    if (p3) p3_iops_sum += cls.avg_iops;
    fx.result.items.push_back(cls);
  }
  // Peak concurrent IOPS above the per-item average (as the classifier
  // measures on real traces) — gives N_hot the headroom that makes the
  // placement converge without retries at ~60% IOPS fill.
  fx.result.p3_max_iops = p3_iops_sum * 1.6;
  fx.virt = std::make_unique<storage::BlockVirtualization>(
      &fx.catalog, n_enclosures, 1700LL * 1024 * 1024 * 1024);
  if (!fx.virt->PlaceInitial().ok()) {
    std::fprintf(stderr, "planner_scale: initial placement failed\n");
    std::exit(1);
  }
  core::HotColdPlanner hc(
      core::HotColdPlanner::Options{900.0, fx.virt->capacity_bytes()});
  core::HotColdPartition part = hc.Plan(fx.result, *fx.virt);
  for (const core::ItemClassification& cls : fx.result.items) {
    if (cls.pattern == core::IoPattern::kP3 &&
        !part.IsHot(fx.virt->EnclosureOf(cls.item))) {
      fx.movers++;
    }
  }
  return fx;
}

bool SamePlacementPlan(const core::PlacementPlan& a,
                       const core::PlacementPlan& b) {
  if (a.partition.n_hot != b.partition.n_hot ||
      a.partition.is_hot != b.partition.is_hot ||
      a.migrations.size() != b.migrations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.migrations.size(); ++i) {
    if (a.migrations[i].item != b.migrations[i].item ||
        a.migrations[i].from != b.migrations[i].from ||
        a.migrations[i].to != b.migrations[i].to) {
      return false;
    }
  }
  return true;
}

template <typename Fn>
double MeasureSecondsPerCall(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up (grows scratch to steady state)
  int calls = 0;
  auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    calls++;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 1.0 && calls < 10);
  return elapsed / calls;
}

struct PlannerScaleCase {
  int enclosures = 0;
  int items = 0;
  int64_t movers = 0;
  int64_t migrations = 0;
  double legacy_sec = 0.0;
  double indexed_sec = 0.0;
};

PlannerScaleCase RunPlannerScaleCase(int n_enclosures,
                                     int items_per_enclosure) {
  PlannerScaleFixture fx =
      MakePlannerScaleFixture(n_enclosures, items_per_enclosure);
  PlannerScaleCase out;
  out.enclosures = n_enclosures;
  out.items = n_enclosures * items_per_enclosure;
  out.movers = fx.movers;

  core::PlacementPlanner::Options options{900.0, fx.virt->capacity_bytes()};
  core::HotColdPlanner hot_cold(
      core::HotColdPlanner::Options{900.0, fx.virt->capacity_bytes()});
  core::PlacementPlanner indexed(options, &hot_cold);
  legacy::LegacyHotColdPlanner legacy_hot_cold(
      core::HotColdPlanner::Options{900.0, fx.virt->capacity_bytes()});
  legacy::LegacyPlacementPlanner legacy(options, &legacy_hot_cold);

  core::PlacementPlan indexed_plan = indexed.Plan(fx.result, *fx.virt);
  core::PlacementPlan legacy_plan = legacy.Plan(fx.result, *fx.virt);
  if (!SamePlacementPlan(indexed_plan, legacy_plan)) {
    std::fprintf(stderr,
                 "BENCH_perf: planner_scale %dx%d — indexed and legacy "
                 "plans disagree (n_hot %d/%d, migrations %zu/%zu)\n",
                 n_enclosures, items_per_enclosure, indexed_plan.partition.n_hot,
                 legacy_plan.partition.n_hot, indexed_plan.migrations.size(),
                 legacy_plan.migrations.size());
    std::exit(1);
  }
  out.migrations = static_cast<int64_t>(indexed_plan.migrations.size());

  out.indexed_sec = MeasureSecondsPerCall([&] {
    benchmark::DoNotOptimize(indexed.Plan(fx.result, *fx.virt));
  });
  out.legacy_sec = MeasureSecondsPerCall([&] {
    benchmark::DoNotOptimize(legacy.Plan(fx.result, *fx.virt));
  });
  return out;
}

// ---------------------------------------------------------------------
// classify_scale: period-end classification cost at fleet scale (10k
// enclosures / 1M items), legacy full-trace replay vs streaming
// finalisation (DESIGN.md §13). The streaming classifier pays the
// interval analysis during ingest — amortised into monitoring — so its
// period-end cost is the frontier finalise alone, while the frozen
// reference (bench/legacy_classifier.h) replays the whole captured trace
// and heap-allocates per episodic item. Gated on the two producing
// bit-identical classifications AND identical placement plans
// (migration lists compared element-wise).
// ---------------------------------------------------------------------

struct ClassifyScaleCase {
  int enclosures = 0;
  int items = 0;
  int64_t trace_events = 0;
  int64_t active_items = 0;
  int64_t migrations = 0;
  double ingest_sec = 0.0;    ///< one full-period ingest pass
  double legacy_sec = 0.0;    ///< legacy classify per period end
  double finalize_sec = 0.0;  ///< streaming finalise per period end
  size_t peak_state_bytes = 0;
  size_t trace_bytes = 0;
};

bool SameClassification(const core::ClassificationResult& a,
                        const core::ClassificationResult& b) {
  if (a.items.size() != b.items.size() ||
      a.pattern_counts != b.pattern_counts ||
      a.p3_max_iops != b.p3_max_iops ||
      a.mean_long_interval != b.mean_long_interval) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    const core::ItemClassification& x = a.items[i];
    const core::ItemClassification& y = b.items[i];
    if (x.item != y.item || x.pattern != y.pattern ||
        x.reads != y.reads || x.writes != y.writes ||
        x.read_bytes != y.read_bytes || x.write_bytes != y.write_bytes ||
        x.io_sequences != y.io_sequences ||
        x.long_interval_count != y.long_interval_count ||
        x.avg_iops != y.avg_iops) {
      return false;
    }
  }
  return true;
}

ClassifyScaleCase RunClassifyScaleCase(int n_enclosures,
                                       int items_per_enclosure) {
  constexpr SimTime kPeriodEnd = 520 * kSecond;
  ClassifyScaleCase out;
  out.enclosures = n_enclosures;
  const int n_items = n_enclosures * items_per_enclosure;
  out.items = n_items;

  storage::DataItemCatalog catalog;
  for (int e = 0; e < n_enclosures; ++e) {
    catalog.AddVolume(static_cast<EnclosureId>(e));
  }
  Xoshiro256 rng(0x5eedc1a551f7ull + static_cast<uint64_t>(n_items));
  for (int i = 0; i < n_items; ++i) {
    catalog
        .AddItem("i" + std::to_string(i),
                 static_cast<VolumeId>(rng.UniformInt(0, n_enclosures - 1)),
                 rng.UniformInt(16, 160) * (128LL * 1024 * 1024),
                 storage::DataItemKind::kFile)
        .value();
  }

  // Activity-proportional trace: ~2% of the catalog sees I/O at all, a
  // tenth of that runs dense enough to classify P3. Per-item times are
  // strictly increasing, so sorting by (time, item) yields a valid
  // global monitor order with per-item order preserved.
  std::vector<trace::LogicalIoRecord> records;
  for (int i = 0; i < n_items; ++i) {
    if (!rng.Bernoulli(0.02)) continue;
    out.active_items++;
    trace::LogicalIoRecord rec;
    rec.item = static_cast<DataItemId>(i);
    rec.size = 8 * 1024;
    if (rng.Bernoulli(0.1)) {
      // Dense: every 0.1-0.4 s for the whole period — never a Long
      // Interval (P3), feeding the I_max bucket series.
      SimTime t = rng.UniformInt(0, 5 * kSecond);
      while (t < kPeriodEnd) {
        rec.time = t;
        rec.type = rng.Bernoulli(0.6) ? IoType::kRead : IoType::kWrite;
        records.push_back(rec);
        t += rng.UniformInt(kSecond / 10, 4 * kSecond / 10);
      }
    } else {
      // Episodic: one or two short bursts (P1/P2).
      const int bursts = rng.Bernoulli(0.4) ? 2 : 1;
      for (int b = 0; b < bursts; ++b) {
        SimTime t = rng.UniformInt(0, kPeriodEnd - kSecond);
        const int n = static_cast<int>(rng.UniformInt(3, 20));
        for (int k = 0; k < n && t < kPeriodEnd; ++k) {
          rec.time = t;
          rec.type = rng.Bernoulli(0.5) ? IoType::kRead : IoType::kWrite;
          records.push_back(rec);
          t += rng.UniformInt(10 * kMillisecond, 200 * kMillisecond);
        }
      }
    }
  }
  std::sort(records.begin(), records.end(),
            [](const trace::LogicalIoRecord& a,
               const trace::LogicalIoRecord& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.item < b.item;
            });
  trace::LogicalTraceBuffer buffer;
  for (const trace::LogicalIoRecord& rec : records) buffer.Append(rec);
  records.clear();
  records.shrink_to_fit();
  out.trace_events = static_cast<int64_t>(buffer.size());
  out.trace_bytes = buffer.size() * sizeof(trace::LogicalIoRecord);

  core::PatternClassifier::Options options{52 * kSecond, 1 * kSecond};
  core::PatternClassifier streaming(options);
  bench::LegacyPatternClassifier legacy(options);

  // One timed full-period ingest pass (the cost the streaming pipeline
  // folds into monitoring), leaving the classifier ready to finalise.
  using Clock = std::chrono::steady_clock;
  auto ingest_start = Clock::now();
  streaming.BeginPeriod(0);
  for (const trace::LogicalIoRecord& rec : buffer.records()) {
    streaming.OnLogicalIo(rec);
  }
  out.ingest_sec =
      std::chrono::duration<double>(Clock::now() - ingest_start).count();

  // First finalise pays the one-time O(catalog) quiet-row init; the timed
  // loop below measures the steady-state period end (frontier only).
  const core::ClassificationResult& streaming_result =
      streaming.Finalize(catalog, kPeriodEnd);
  core::ClassificationResult legacy_result =
      legacy.Classify(buffer, catalog, 0, kPeriodEnd);
  if (!SameClassification(legacy_result, streaming_result)) {
    std::fprintf(stderr,
                 "BENCH_perf: classify_scale %dx%d — streaming and legacy "
                 "classifications disagree\n",
                 n_enclosures, items_per_enclosure);
    std::exit(1);
  }

  // Identical plans: both classifications through the same placement
  // pipeline must order the same migrations.
  auto virt = std::make_unique<storage::BlockVirtualization>(
      &catalog, n_enclosures, 1700LL * 1024 * 1024 * 1024);
  if (!virt->PlaceInitial().ok()) {
    std::fprintf(stderr, "classify_scale: initial placement failed\n");
    std::exit(1);
  }
  core::HotColdPlanner hot_cold(
      core::HotColdPlanner::Options{900.0, virt->capacity_bytes()});
  core::PlacementPlanner planner(
      core::PlacementPlanner::Options{900.0, virt->capacity_bytes()},
      &hot_cold);
  core::PlacementPlan stream_plan = planner.Plan(streaming_result, *virt);
  core::PlacementPlan legacy_plan = planner.Plan(legacy_result, *virt);
  if (!SamePlacementPlan(stream_plan, legacy_plan)) {
    std::fprintf(stderr,
                 "BENCH_perf: classify_scale %dx%d — plans disagree "
                 "(n_hot %d/%d, migrations %zu/%zu)\n",
                 n_enclosures, items_per_enclosure,
                 stream_plan.partition.n_hot, legacy_plan.partition.n_hot,
                 stream_plan.migrations.size(),
                 legacy_plan.migrations.size());
    std::exit(1);
  }
  out.migrations = static_cast<int64_t>(stream_plan.migrations.size());

  // Period-end cost: streaming = Finalize only (idempotent over the same
  // ingested state), legacy = the full trace replay + per-item gather.
  out.finalize_sec = MeasureSecondsPerCall([&] {
    const core::ClassificationResult& r =
        streaming.Finalize(catalog, kPeriodEnd);
    benchmark::DoNotOptimize(r.items.data());
  });
  out.legacy_sec = MeasureSecondsPerCall([&] {
    benchmark::DoNotOptimize(
        legacy.Classify(buffer, catalog, 0, kPeriodEnd));
  });
  out.peak_state_bytes = streaming.peak_state_bytes();
  return out;
}

template <typename Fn>
double MeasureEventsPerSec(int64_t events_per_call, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  // Warm-up (grows the reusable scratch to steady state).
  fn();
  int64_t calls = 0;
  auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    calls++;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 1.0);
  return static_cast<double>(events_per_call * calls) / elapsed;
}

struct CacheMixRates {
  int64_t ops = 0;
  double read_miss_ratio = 0.0;  ///< missed / read blocks
  double slab_ops_per_sec = 0.0;
  double legacy_ops_per_sec = 0.0;
};

/// Runs `mix` through both caches, exits 1 unless every aggregate agrees,
/// then times each.
CacheMixRates MeasureCacheMix(const char* name, const CacheMix& mix) {
  CacheMixTotals slab_totals = RunCacheMixSlab(mix);
  CacheMixTotals legacy_totals = RunCacheMixLegacy(mix);
  if (!(slab_totals == legacy_totals)) {
    std::fprintf(stderr,
                 "BENCH_perf: slab and legacy cache disagree on the %s "
                 "(hits %lld/%lld misses %lld/%lld absorbed %lld/%lld "
                 "demand blocks %lld/%lld)\n",
                 name, static_cast<long long>(slab_totals.hits),
                 static_cast<long long>(legacy_totals.hits),
                 static_cast<long long>(slab_totals.misses),
                 static_cast<long long>(legacy_totals.misses),
                 static_cast<long long>(slab_totals.absorbed),
                 static_cast<long long>(legacy_totals.absorbed),
                 static_cast<long long>(slab_totals.demand_blocks),
                 static_cast<long long>(legacy_totals.demand_blocks));
    std::exit(1);
  }
  CacheMixRates rates;
  rates.ops = static_cast<int64_t>(mix.ops.size());
  rates.read_miss_ratio =
      static_cast<double>(slab_totals.misses) /
      static_cast<double>(slab_totals.hits + slab_totals.misses);
  rates.slab_ops_per_sec = MeasureEventsPerSec(
      rates.ops, [&] { benchmark::DoNotOptimize(RunCacheMixSlab(mix)); });
  rates.legacy_ops_per_sec = MeasureEventsPerSec(
      rates.ops, [&] { benchmark::DoNotOptimize(RunCacheMixLegacy(mix)); });
  return rates;
}

/// One observation-overhead figure: an instrumented eco replay vs the
/// same replay without the instrument.
struct OverheadFigure {
  const char* what = "";  ///< instrument name in messages
  double off_rate = 0.0;
  double on_rate = 0.0;
  /// Published figure: the raw median, clamped to 0 at or below the noise
  /// floor.
  double overhead_pct = 0.0;
  double overhead_pct_raw = 0.0;  ///< median of the per-pair overheads
  double noise_floor_pct = 0.0;   ///< median off-vs-off drift
  std::vector<double> pair_pcts;  ///< per-pair overheads, run order
  int64_t count = 0;  ///< instrument output of the median pair
};

/// All three overhead budgets (telemetry, live ledger, profile) are <2%.
constexpr double kOverheadGatePct = 2.0;
constexpr int kOverheadPairs = 5;

/// The bracketed overhead protocol. Wall-clock rates on this harness
/// drift by several percent over a --json run (frequency scaling, cache
/// warming), so a single off/on pair reports anywhere between -3% and +4%
/// on a healthy build. Each repetition therefore brackets the
/// instrumented run with two baseline runs (off-on-off): linear drift
/// cancels inside the bracket, and the published figure is the MEDIAN of
/// the repetitions — a real regression shifts the whole distribution,
/// residual noise only its tails. The raw median can still land slightly
/// negative on a healthy build (attaching an instrument cannot speed the
/// replay up), so the published figure is clamped at the measured noise
/// floor: the bracket's own off-vs-off drift is the resolution of the
/// harness, and a raw median at or below it publishes as 0.00%. The raw
/// median and every per-pair delta are recorded alongside, and the
/// one-sided gate stays on the raw median.
///
/// `off()` returns an uninstrumented ReplayFigure; `on(&count)` returns
/// an instrumented one and reports the instrument's output (events,
/// windows, spans). An instrumented run that diverges from `want_fp`
/// exits the process: observation must never change the replay.
template <typename OffFn, typename OnFn>
OverheadFigure MeasureBracketedOverhead(const char* what, uint64_t want_fp,
                                        OffFn&& off, OnFn&& on) {
  struct Rep {
    double overhead_pct;
    double drift_pct;  ///< |off_before - off_after| / off_rate: noise
    double off_rate;
    double on_rate;
    int64_t count;
  };
  OverheadFigure figure;
  figure.what = what;
  std::vector<Rep> reps;
  reps.reserve(kOverheadPairs);
  for (int attempt = 0; attempt < kOverheadPairs; ++attempt) {
    ReplayFigure off_before = off();
    int64_t count = 0;
    ReplayFigure on_figure = on(&count);
    ReplayFigure off_after = off();
    if (on_figure.fingerprint != want_fp) {
      std::fprintf(stderr,
                   "BENCH_perf: %s-on replay diverged from the seed "
                   "outcome (fp %016llx want %016llx) — attaching the "
                   "instrument changed the replay\n",
                   what,
                   static_cast<unsigned long long>(on_figure.fingerprint),
                   static_cast<unsigned long long>(want_fp));
      std::exit(1);
    }
    const double off_rate =
        0.5 * (off_before.lios_per_sec + off_after.lios_per_sec);
    Rep rep;
    rep.overhead_pct = (off_rate - on_figure.lios_per_sec) / off_rate * 100.0;
    rep.drift_pct =
        std::abs(off_before.lios_per_sec - off_after.lios_per_sec) /
        off_rate * 100.0;
    rep.off_rate = off_rate;
    rep.on_rate = on_figure.lios_per_sec;
    rep.count = count;
    figure.pair_pcts.push_back(rep.overhead_pct);
    reps.push_back(rep);
  }
  std::sort(reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
    return a.overhead_pct < b.overhead_pct;
  });
  const Rep& median = reps[kOverheadPairs / 2];
  figure.overhead_pct_raw = median.overhead_pct;
  figure.off_rate = median.off_rate;
  figure.on_rate = median.on_rate;
  figure.count = median.count;
  std::vector<double> drifts;
  for (const Rep& rep : reps) drifts.push_back(rep.drift_pct);
  std::sort(drifts.begin(), drifts.end());
  figure.noise_floor_pct = drifts[kOverheadPairs / 2];
  figure.overhead_pct = figure.overhead_pct_raw > figure.noise_floor_pct
                            ? figure.overhead_pct_raw
                            : 0.0;
  return figure;
}

/// Prints the budget violation and returns true when `figure`'s raw
/// median is at or over the gate.
bool OverheadGateTrips(const OverheadFigure& figure) {
  if (figure.overhead_pct_raw < kOverheadGatePct) return false;
  std::fprintf(stderr,
               "BENCH_perf: %s overhead %.2f%% (median of %d bracketed "
               "repetitions) exceeds the %.1f%% budget (on %.0f vs off "
               "%.0f lios/s)\n",
               figure.what, figure.overhead_pct_raw, kOverheadPairs,
               kOverheadGatePct, figure.on_rate, figure.off_rate);
  return true;
}

void WriteOverheadJson(std::FILE* out, const char* key, bool enabled,
                       const char* count_key, const OverheadFigure& figure) {
  std::fprintf(out, "  \"%s\": {\n", key);
  std::fprintf(out, "    \"workload\": \"file_server_20min\",\n");
  std::fprintf(out, "    \"policy\": \"eco_storage\",\n");
  std::fprintf(out, "    \"enabled\": %s,\n", enabled ? "true" : "false");
  std::fprintf(out, "    \"%s\": %lld,\n", count_key,
               static_cast<long long>(figure.count));
  std::fprintf(out, "    \"off_lios_per_sec\": %.0f,\n", figure.off_rate);
  std::fprintf(out, "    \"on_lios_per_sec\": %.0f,\n", figure.on_rate);
  std::fprintf(out, "    \"overhead_pct\": %.2f,\n", figure.overhead_pct);
  std::fprintf(out, "    \"overhead_pct_raw\": %.2f,\n",
               figure.overhead_pct_raw);
  std::fprintf(out, "    \"noise_floor_pct\": %.2f,\n",
               figure.noise_floor_pct);
  std::fprintf(out, "    \"pair_overhead_pct\": [");
  for (size_t i = 0; i < figure.pair_pcts.size(); ++i) {
    std::fprintf(out, "%s%.2f", i == 0 ? "" : ", ", figure.pair_pcts[i]);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "    \"statistic\": \"median\",\n");
  std::fprintf(out, "    \"pairs\": %d,\n", kOverheadPairs);
  std::fprintf(out, "    \"gate_pct\": %.1f\n", kOverheadGatePct);
  std::fprintf(out, "  },\n");
}

void PrintOverhead(const OverheadFigure& figure, const char* count_unit) {
  std::printf("%s overhead (eco replay, %lld %s, median of %d bracketed "
              "reps): on %.2fM vs off %.2fM lios/s = %.2f%% (raw %.2f%%, "
              "noise floor %.2f%%, budget %.1f%%)\n",
              figure.what, static_cast<long long>(figure.count), count_unit,
              kOverheadPairs, figure.on_rate / 1e6, figure.off_rate / 1e6,
              figure.overhead_pct, figure.overhead_pct_raw,
              figure.noise_floor_pct, kOverheadGatePct);
}

/// Measures every tracked figure and writes the BENCH_perf.json schema.
/// Path precedence: `path_override` (the --json= flag) beats the
/// ECOSTORE_BENCH_JSON env var beats "BENCH_perf.json". Returns the
/// process exit code: the file is always written first, then 1 if an
/// overhead gate tripped (or the file could not be written).
int WriteBenchPerfJson(const char* path_override) {
  const FileServerPeriod& period = FileServerPeriod::Get();
  const auto events = static_cast<int64_t>(period.buffer.size());
  core::PatternClassifier classifier(
      core::PatternClassifier::Options{52 * kSecond, 1 * kSecond});
  core::PatternClassifier::Options options{52 * kSecond, 1 * kSecond};

  // Sanity: both implementations must agree before we compare speed.
  core::ClassificationResult current =
      classifier.Classify(period.buffer, period.catalog, 0,
                          period.period_end);
  core::ClassificationResult legacy = ClassifyLegacy(
      options, period.buffer, period.catalog, 0, period.period_end);
  if (current.pattern_counts != legacy.pattern_counts ||
      current.p3_max_iops != legacy.p3_max_iops ||
      current.mean_long_interval != legacy.mean_long_interval) {
    std::fprintf(stderr,
                 "BENCH_perf: streaming and legacy classification disagree!\n");
    std::exit(1);
  }

  double streaming = MeasureEventsPerSec(events, [&] {
    benchmark::DoNotOptimize(classifier.Classify(
        period.buffer, period.catalog, 0, period.period_end));
  });
  double legacy_rate = MeasureEventsPerSec(events, [&] {
    benchmark::DoNotOptimize(ClassifyLegacy(
        options, period.buffer, period.catalog, 0, period.period_end));
  });

  // Sanity: the POD-heap engine and the frozen PR-2 replica must execute
  // the same schedule identically before their speeds are compared.
  {
    int64_t pod_fired = 0, legacy_fired = 0;
    sim::Simulator pod;
    legacy::LegacySimulator old_engine;
    for (int i = 0; i < 100000; ++i) {
      pod.ScheduleAt(i, [&] { pod_fired++; });
      old_engine.ScheduleAt(i, [&] { legacy_fired++; });
    }
    int64_t pod_ran = pod.RunAll();
    int64_t legacy_ran = old_engine.RunAll();
    if (pod_fired != legacy_fired || pod_ran != legacy_ran ||
        pod.Now() != old_engine.Now()) {
      std::fprintf(stderr,
                   "BENCH_perf: POD-heap and legacy simulator disagree "
                   "(fired %lld/%lld ran %lld/%lld)\n",
                   static_cast<long long>(pod_fired),
                   static_cast<long long>(legacy_fired),
                   static_cast<long long>(pod_ran),
                   static_cast<long long>(legacy_ran));
      std::exit(1);
    }
  }

  double sim_rate = MeasureEventsPerSec(100000, [] {
    sim::Simulator sim;
    sim.Reserve(100000);
    for (int i = 0; i < 100000; ++i) sim.ScheduleAt(i, [] {});
    benchmark::DoNotOptimize(sim.RunAll());
  });
  double sim_legacy_rate = MeasureEventsPerSec(100000, [] {
    legacy::LegacySimulator sim;
    for (int i = 0; i < 100000; ++i) sim.ScheduleAt(i, [] {});
    benchmark::DoNotOptimize(sim.RunAll());
  });
  // Cancellation-heavy variant: every second event is cancelled before the
  // loop drains (the case the tombstone scheme targets).
  double sim_cancel_rate = MeasureEventsPerSec(100000, [] {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(50000);
    for (int i = 0; i < 100000; ++i) {
      sim::EventId id = sim.ScheduleAt(i, [] {});
      if (i % 2 == 0) ids.push_back(id);
    }
    for (sim::EventId id : ids) sim.Cancel(id);
    benchmark::DoNotOptimize(sim.RunAll());
  });

  // Cache read/write mixes, slab vs legacy map/list, equal-aggregate
  // gated: the small eviction/destage/write-delay mix and the miss-heavy
  // OLTP stream.
  const CacheMix small_mix = MakeCacheMix(1 << 18);
  const CacheMix oltp_mix = MakeOltpCacheMix(1 << 18);
  const CacheMixRates small_mix_rates = MeasureCacheMix("mix", small_mix);
  const CacheMixRates oltp_rates = MeasureCacheMix("OLTP mix", oltp_mix);

  // Workload streaming: Next() vs NextBatch() on the file-server
  // generator, gated on the two cursors producing the identical record
  // stream (count + content fingerprint).
  workload::FileServerWorkload* stream_wl = StreamBenchWorkload();
  int64_t stream_records = 0;
  {
    bench::Fnv1a next_fp, batch_fp;
    auto fold = [](bench::Fnv1a* fp, const trace::LogicalIoRecord& rec) {
      fp->I64(rec.time);
      fp->I64(rec.item);
      fp->I64(rec.offset);
      fp->I64(rec.size);
      fp->I64(static_cast<int64_t>(rec.type));
      fp->I64(rec.tag);
    };
    stream_wl->Reset();
    trace::LogicalIoRecord rec;
    while (stream_wl->Next(&rec)) {
      fold(&next_fp, rec);
      stream_records++;
    }
    stream_wl->Reset();
    std::vector<trace::LogicalIoRecord> batch;
    int64_t batch_records = 0;
    while (stream_wl->NextBatch(&batch, 256) > 0) {
      for (const trace::LogicalIoRecord& r : batch) fold(&batch_fp, r);
      batch_records += static_cast<int64_t>(batch.size());
    }
    if (stream_records != batch_records ||
        next_fp.hash() != batch_fp.hash()) {
      std::fprintf(stderr,
                   "BENCH_perf: Next and NextBatch streams disagree "
                   "(%lld vs %lld records, fp %016llx vs %016llx)\n",
                   static_cast<long long>(stream_records),
                   static_cast<long long>(batch_records),
                   static_cast<unsigned long long>(next_fp.hash()),
                   static_cast<unsigned long long>(batch_fp.hash()));
      std::exit(1);
    }
  }
  double stream_next_rate = MeasureEventsPerSec(stream_records, [&] {
    stream_wl->Reset();
    trace::LogicalIoRecord rec;
    while (stream_wl->Next(&rec)) benchmark::DoNotOptimize(rec);
  });
  std::vector<trace::LogicalIoRecord> stream_batch;
  stream_batch.reserve(256);
  double stream_batch_rate = MeasureEventsPerSec(stream_records, [&] {
    stream_wl->Reset();
    while (stream_wl->NextBatch(&stream_batch, 256) > 0) {
      benchmark::DoNotOptimize(stream_batch.data());
    }
  });

  // End-to-end replay throughput, new code vs the seed build's figures.
  // The seed numbers were measured on this machine from commit 2bf6bdc
  // with this exact harness; the fingerprints pin the simulated outcome,
  // so the speedup is apples-to-apples by construction.
  constexpr double kSeedReplayEcoLiosPerSec = 1493682.0;
  constexpr double kSeedReplayNpsLiosPerSec = 1813872.0;
  constexpr double kSeedSimulatorEventsPerSec = 5783775.0;
  constexpr uint64_t kSeedReplayEcoFingerprint = 0xe44f2708f6e0f001ull;
  constexpr uint64_t kSeedReplayNpsFingerprint = 0x5da2bb45a09019c0ull;
  ReplayFigure eco = MeasureReplayThroughput(true);
  ReplayFigure nps = MeasureReplayThroughput(false);
  ReplayFigure pdc = MeasureOltpBaselineReplay(2);
  ReplayFigure ddr = MeasureOltpBaselineReplay(3);
  if (eco.fingerprint != kSeedReplayEcoFingerprint ||
      nps.fingerprint != kSeedReplayNpsFingerprint) {
    std::fprintf(stderr,
                 "BENCH_perf: replay outcome diverged from the seed build "
                 "(eco fp %016llx want %016llx, nps fp %016llx want "
                 "%016llx)\n",
                 static_cast<unsigned long long>(eco.fingerprint),
                 static_cast<unsigned long long>(kSeedReplayEcoFingerprint),
                 static_cast<unsigned long long>(nps.fingerprint),
                 static_cast<unsigned long long>(kSeedReplayNpsFingerprint));
    std::exit(1);
  }

  // Observation overheads: the identical eco replay with one instrument
  // attached vs without, each gated at <2% throughput and on staying
  // bit-identical (MeasureBracketedOverhead has the protocol).
  //  - telemetry: a recorder with the default class mask (--telemetry);
  //  - live ledger: the streaming pipeline (StreamDispatcher +
  //    RollingSummary folding 1-minute windows, the --rolling-summary
  //    configuration minus file I/O) vs the same replay with only the
  //    recorder. Both arms construct their instruments fresh inside every
  //    timed run, so the delta isolates the consumer: the per-window
  //    recorder pumps, the incremental ledger fold and the window closes;
  //  - profile: a wall-clock phase profiler (--profile), which only reads
  //    the wall clock and writes its own per-thread rings.
  const OverheadFigure telemetry_overhead = MeasureBracketedOverhead(
      "telemetry", kSeedReplayEcoFingerprint,
      [] { return MeasureReplayThroughput(true); },
      [](int64_t* count) {
        telemetry::Recorder recorder;  // fresh rings per repetition
        ReplayFigure on = MeasureReplayThroughput(true, &recorder);
        *count = static_cast<int64_t>(recorder.recorded());
        return on;
      });
  const OverheadFigure live_overhead = MeasureBracketedOverhead(
      "live-ledger", kSeedReplayEcoFingerprint,
      [] {
        return MeasureReplayThroughput(true, nullptr,
                                       ReplayInstrument::kLiveRecorder);
      },
      [](int64_t* count) {
        ReplayFigure on = MeasureReplayThroughput(
            true, nullptr, ReplayInstrument::kLiveConsumer);
        if (telemetry::Recorder::kEnabled && on.rolling_windows <= 0) {
          std::fprintf(stderr,
                       "BENCH_perf: live consumer closed no rolling windows "
                       "— the stream pump is not wired\n");
          std::exit(1);
        }
        if (telemetry::Recorder::kEnabled && on.rolling_off_windows <= 0) {
          std::fprintf(stderr,
                       "BENCH_perf: live ledger folded no off-windows — "
                       "its meta does not size the enclosure table\n");
          std::exit(1);
        }
        *count = on.rolling_windows;
        return on;
      });
  const OverheadFigure profile_overhead = MeasureBracketedOverhead(
      "profile", kSeedReplayEcoFingerprint,
      [] { return MeasureReplayThroughput(true); },
      [](int64_t* count) {
        telemetry::profile::Profiler profiler;  // fresh rings per repetition
        ReplayFigure on = MeasureReplayThroughput(
            true, nullptr, ReplayInstrument::kPassedRecorder, &profiler);
        *count = static_cast<int64_t>(profiler.recorded());
        return on;
      });

  // Fleet-scale planner figure: indexed vs legacy stable_sort placement
  // on synthetic 1k/100k and 10k/1M fleets, gated on identical plans.
  PlannerScaleCase planner_small = RunPlannerScaleCase(1000, 100);
  PlannerScaleCase planner_large = RunPlannerScaleCase(10000, 100);

  // Fleet-scale period-end classification figure, gated on identical
  // classifications and identical placement plans.
  ClassifyScaleCase classify_scale = RunClassifyScaleCase(10000, 100);

  const char* path = path_override;
  if (path == nullptr) path = std::getenv("ECOSTORE_BENCH_JSON");
  if (path == nullptr) path = "BENCH_perf.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "BENCH_perf: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"bench_micro\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"classification_fileserver_period\": {\n");
  std::fprintf(out, "    \"trace_events\": %lld,\n",
               static_cast<long long>(events));
  std::fprintf(out, "    \"catalog_items\": %zu,\n",
               period.catalog.item_count());
  std::fprintf(out, "    \"streaming_events_per_sec\": %.0f,\n", streaming);
  std::fprintf(out, "    \"legacy_events_per_sec\": %.0f,\n", legacy_rate);
  std::fprintf(out, "    \"speedup\": %.2f\n", streaming / legacy_rate);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"cache_mix\": {\n");
  std::fprintf(out, "    \"ops\": %lld,\n",
               static_cast<long long>(small_mix_rates.ops));
  std::fprintf(out, "    \"slab_ops_per_sec\": %.0f,\n",
               small_mix_rates.slab_ops_per_sec);
  std::fprintf(out, "    \"legacy_ops_per_sec\": %.0f,\n",
               small_mix_rates.legacy_ops_per_sec);
  std::fprintf(out, "    \"speedup\": %.2f,\n",
               small_mix_rates.slab_ops_per_sec /
                   small_mix_rates.legacy_ops_per_sec);
  std::fprintf(out, "    \"oltp\": {\n");
  std::fprintf(out,
               "      \"stream\": \"8 KiB random I/O, 55%% writes, %d items "
               "x %lld GiB, default cache\",\n",
               kOltpMixItems,
               static_cast<long long>(kOltpMixItemBytes / kGiB));
  std::fprintf(out, "      \"ops\": %lld,\n",
               static_cast<long long>(oltp_rates.ops));
  std::fprintf(out, "      \"read_miss_ratio\": %.4f,\n",
               oltp_rates.read_miss_ratio);
  std::fprintf(out, "      \"slab_ops_per_sec\": %.0f,\n",
               oltp_rates.slab_ops_per_sec);
  std::fprintf(out, "      \"legacy_ops_per_sec\": %.0f,\n",
               oltp_rates.legacy_ops_per_sec);
  std::fprintf(out, "      \"speedup\": %.2f\n",
               oltp_rates.slab_ops_per_sec / oltp_rates.legacy_ops_per_sec);
  std::fprintf(out, "    }\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"workload_stream\": {\n");
  std::fprintf(out, "    \"workload\": \"file_server_period_520s\",\n");
  std::fprintf(out, "    \"records\": %lld,\n",
               static_cast<long long>(stream_records));
  std::fprintf(out, "    \"next_records_per_sec\": %.0f,\n",
               stream_next_rate);
  std::fprintf(out, "    \"next_batch_records_per_sec\": %.0f,\n",
               stream_batch_rate);
  std::fprintf(out, "    \"batch_speedup\": %.2f\n",
               stream_batch_rate / stream_next_rate);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"replay_end_to_end\": {\n");
  std::fprintf(out, "    \"workload\": \"file_server_20min\",\n");
  std::fprintf(out, "    \"logical_ios_per_run\": %lld,\n",
               static_cast<long long>(eco.logical_ios));
  std::fprintf(out, "    \"eco_storage_lios_per_sec\": %.0f,\n",
               eco.lios_per_sec);
  std::fprintf(out, "    \"eco_storage_seed_lios_per_sec\": %.0f,\n",
               kSeedReplayEcoLiosPerSec);
  std::fprintf(out, "    \"eco_storage_speedup\": %.2f,\n",
               eco.lios_per_sec / kSeedReplayEcoLiosPerSec);
  std::fprintf(out, "    \"no_power_saving_lios_per_sec\": %.0f,\n",
               nps.lios_per_sec);
  std::fprintf(out, "    \"no_power_saving_seed_lios_per_sec\": %.0f,\n",
               kSeedReplayNpsLiosPerSec);
  std::fprintf(out, "    \"no_power_saving_speedup\": %.2f,\n",
               nps.lios_per_sec / kSeedReplayNpsLiosPerSec);
  std::fprintf(out, "    \"baseline_workload\": \"oltp_5min\",\n");
  std::fprintf(out, "    \"baseline_logical_ios_per_run\": %lld,\n",
               static_cast<long long>(pdc.logical_ios));
  const std::pair<const char*, const ReplayFigure*> baselines[] = {
      {"pdc", &pdc}, {"ddr", &ddr}};
  for (size_t i = 0; i < 2; ++i) {
    const ReplayFigure& f = *baselines[i].second;
    std::fprintf(out,
                 "    \"%s\": {\"lios_per_sec\": %.0f, "
                 "\"sim_events_executed\": %lld, "
                 "\"sim_peak_heap_depth\": %lld}%s\n",
                 baselines[i].first, f.lios_per_sec,
                 static_cast<long long>(f.sim_events_executed),
                 static_cast<long long>(f.sim_peak_heap_depth),
                 i + 1 < 2 ? "," : "");
  }
  std::fprintf(out, "  },\n");
  WriteOverheadJson(out, "telemetry_overhead", telemetry::Recorder::kEnabled,
                    "events_recorded", telemetry_overhead);
  WriteOverheadJson(out, "live_ledger_overhead",
                    telemetry::Recorder::kEnabled, "rolling_windows",
                    live_overhead);
  WriteOverheadJson(out, "profile_overhead",
                    telemetry::profile::Profiler::kEnabled,
                    "spans_recorded", profile_overhead);
  std::fprintf(out, "  \"planner_scale\": {\n");
  std::fprintf(out, "    \"cases\": [\n");
  const PlannerScaleCase* planner_cases[] = {&planner_small, &planner_large};
  for (int i = 0; i < 2; ++i) {
    const PlannerScaleCase& c = *planner_cases[i];
    std::fprintf(out,
                 "      {\"enclosures\": %d, \"items\": %d, "
                 "\"p3_movers\": %lld, \"migrations\": %lld, "
                 "\"legacy_ms_per_plan\": %.2f, "
                 "\"indexed_ms_per_plan\": %.2f, \"speedup\": %.1f}%s\n",
                 c.enclosures, c.items, static_cast<long long>(c.movers),
                 static_cast<long long>(c.migrations), c.legacy_sec * 1e3,
                 c.indexed_sec * 1e3, c.legacy_sec / c.indexed_sec,
                 i == 0 ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"classify_scale\": {\n");
  std::fprintf(out, "    \"enclosures\": %d,\n", classify_scale.enclosures);
  std::fprintf(out, "    \"items\": %d,\n", classify_scale.items);
  std::fprintf(out, "    \"trace_events\": %lld,\n",
               static_cast<long long>(classify_scale.trace_events));
  std::fprintf(out, "    \"active_items\": %lld,\n",
               static_cast<long long>(classify_scale.active_items));
  std::fprintf(out, "    \"migrations\": %lld,\n",
               static_cast<long long>(classify_scale.migrations));
  std::fprintf(out, "    \"ingest_ms_per_period\": %.2f,\n",
               classify_scale.ingest_sec * 1e3);
  std::fprintf(out, "    \"legacy_ms_per_period_end\": %.2f,\n",
               classify_scale.legacy_sec * 1e3);
  std::fprintf(out, "    \"streaming_finalize_ms_per_period_end\": %.2f,\n",
               classify_scale.finalize_sec * 1e3);
  std::fprintf(out, "    \"period_end_speedup\": %.1f,\n",
               classify_scale.legacy_sec / classify_scale.finalize_sec);
  std::fprintf(out, "    \"classifier_peak_state_mib\": %.2f,\n",
               static_cast<double>(classify_scale.peak_state_bytes) /
                   (1024.0 * 1024.0));
  std::fprintf(out, "    \"retained_trace_mib\": %.2f\n",
               static_cast<double>(classify_scale.trace_bytes) /
                   (1024.0 * 1024.0));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"simulator_schedule_events_per_sec\": %.0f,\n",
               sim_rate);
  std::fprintf(out, "  \"simulator_seed_schedule_events_per_sec\": %.0f,\n",
               kSeedSimulatorEventsPerSec);
  std::fprintf(out, "  \"simulator_legacy_schedule_events_per_sec\": %.0f,\n",
               sim_legacy_rate);
  std::fprintf(out, "  \"simulator_schedule_speedup_vs_legacy\": %.2f,\n",
               sim_rate / sim_legacy_rate);
  std::fprintf(out, "  \"simulator_cancel_heavy_events_per_sec\": %.0f\n",
               sim_cancel_rate);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nclassification (file-server period, %lld events): "
              "streaming %.2fM ev/s vs legacy %.2fM ev/s (%.2fx)\n",
              static_cast<long long>(events), streaming / 1e6,
              legacy_rate / 1e6, streaming / legacy_rate);
  for (const auto& [name, rates] :
       {std::pair{"cache mix", small_mix_rates},
        std::pair{"cache OLTP mix", oltp_rates}}) {
    std::printf("%s (%lld ops): slab %.2fM ops/s vs legacy %.2fM ops/s "
                "(%.2fx)\n",
                name, static_cast<long long>(rates.ops),
                rates.slab_ops_per_sec / 1e6, rates.legacy_ops_per_sec / 1e6,
                rates.slab_ops_per_sec / rates.legacy_ops_per_sec);
  }
  std::printf("workload stream (file-server 520 s, %lld records): "
              "NextBatch %.2fM rec/s vs Next %.2fM rec/s (%.2fx)\n",
              static_cast<long long>(stream_records),
              stream_batch_rate / 1e6, stream_next_rate / 1e6,
              stream_batch_rate / stream_next_rate);
  std::printf("replay end-to-end: eco %.2fM lios/s (seed %.2fM, %.2fx), "
              "no_power_saving %.2fM lios/s (seed %.2fM, %.2fx)\n",
              eco.lios_per_sec / 1e6, kSeedReplayEcoLiosPerSec / 1e6,
              eco.lios_per_sec / kSeedReplayEcoLiosPerSec,
              nps.lios_per_sec / 1e6, kSeedReplayNpsLiosPerSec / 1e6,
              nps.lios_per_sec / kSeedReplayNpsLiosPerSec);
  std::printf("replay end-to-end (OLTP 5 min, %lld logical IOs per run): "
              "pdc %.2fM lios/s (%lld events, peak heap %lld), ddr %.2fM "
              "lios/s (%lld events, peak heap %lld)\n",
              static_cast<long long>(pdc.logical_ios), pdc.lios_per_sec / 1e6,
              static_cast<long long>(pdc.sim_events_executed),
              static_cast<long long>(pdc.sim_peak_heap_depth),
              ddr.lios_per_sec / 1e6,
              static_cast<long long>(ddr.sim_events_executed),
              static_cast<long long>(ddr.sim_peak_heap_depth));
  PrintOverhead(telemetry_overhead, "events/run");
  PrintOverhead(live_overhead, "rolling windows");
  PrintOverhead(profile_overhead, "spans/run");
  for (int i = 0; i < 2; ++i) {
    const PlannerScaleCase& c = *planner_cases[i];
    std::printf("planner scale (%d enclosures, %d items, %lld movers): "
                "indexed %.2f ms vs legacy %.2f ms per plan (%.1fx), "
                "%lld migrations\n",
                c.enclosures, c.items, static_cast<long long>(c.movers),
                c.indexed_sec * 1e3, c.legacy_sec * 1e3,
                c.legacy_sec / c.indexed_sec,
                static_cast<long long>(c.migrations));
  }
  std::printf("classify scale (%d enclosures, %d items, %lld events, "
              "%lld active): finalize %.2f ms vs legacy %.2f ms per "
              "period end (%.1fx), ingest %.2f ms/period, peak state "
              "%.2f MiB vs %.2f MiB retained trace, %lld migrations\n",
              classify_scale.enclosures, classify_scale.items,
              static_cast<long long>(classify_scale.trace_events),
              static_cast<long long>(classify_scale.active_items),
              classify_scale.finalize_sec * 1e3,
              classify_scale.legacy_sec * 1e3,
              classify_scale.legacy_sec / classify_scale.finalize_sec,
              classify_scale.ingest_sec * 1e3,
              static_cast<double>(classify_scale.peak_state_bytes) /
                  (1024.0 * 1024.0),
              static_cast<double>(classify_scale.trace_bytes) /
                  (1024.0 * 1024.0),
              static_cast<long long>(classify_scale.migrations));
  std::printf("simulator: schedule+run %.2fM ev/s (seed %.2fM, legacy "
              "%.2fM, %.2fx), cancel-heavy %.2fM ev/s -> %s\n",
              sim_rate / 1e6, kSeedSimulatorEventsPerSec / 1e6,
              sim_legacy_rate / 1e6, sim_rate / sim_legacy_rate,
              sim_cancel_rate / 1e6, path);

  // Gate only after the figures are on disk, so a tripped budget still
  // leaves a complete record of the pass that tripped it.
  bool tripped = false;
  for (const OverheadFigure* figure :
       {&telemetry_overhead, &live_overhead, &profile_overhead}) {
    tripped = OverheadGateTrips(*figure) || tripped;
  }
  return tripped ? 1 : 0;
}

}  // namespace
}  // namespace ecostore

int main(int argc, char** argv) {
  // --check / --record bypass google-benchmark entirely: they run the
  // bit-identical replay regression gate (see bench/replay_check.h).
  // --replay prints the end-to-end throughput figures only.
  // --json[=path] also skips google-benchmark and machine-writes the
  // BENCH_perf.json schema (the sanctioned way to regenerate the file).
  std::string golden_path;
  std::string json_path;
  bool check = false, record = false, replay_only = false, json_only = false;
  // --profile=<base> attaches the wall-clock phase profiler to the eco
  // replay run and writes <base>.profile.jsonl + .profile.trace.json.
  // Implies --replay (the profiled figure is the end-to-end one).
  const std::string profile_base =
      ecostore::bench::ParseProfileFlag(argc, argv);
  if (!profile_base.empty()) replay_only = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--check") check = true;
    else if (arg == "--record") record = true;
    else if (arg == "--replay") replay_only = true;
    else if (arg == "--json") json_only = true;
    else if (arg.rfind("--json=", 0) == 0) {
      json_only = true;
      json_path = arg.substr(7);
    } else if (arg.rfind("--golden=", 0) == 0) {
      golden_path = arg.substr(9);
    }
  }
  if (golden_path.empty()) golden_path = "bench/golden_replay.txt";
  if (check || record) {
    return ecostore::bench::ReplayCheckMain(golden_path, record);
  }
  if (json_only) {
    return ecostore::WriteBenchPerfJson(json_path.empty() ? nullptr
                                                          : json_path.c_str());
  }
  if (replay_only) {
    ecostore::telemetry::profile::Profiler profiler;
    ecostore::telemetry::profile::Profiler* attach =
        profile_base.empty() ? nullptr : &profiler;
    ecostore::ReplayFigure eco = ecostore::MeasureReplayThroughput(
        true, nullptr, ecostore::ReplayInstrument::kPassedRecorder, attach);
    ecostore::ReplayFigure base = ecostore::MeasureReplayThroughput(false);
    std::printf("replay end-to-end (file-server 20 min, %lld logical IOs "
                "per run):\n  eco_storage      %.0f lios/s (fp %016llx)\n"
                "  no_power_saving  %.0f lios/s (fp %016llx)\n",
                static_cast<long long>(eco.logical_ios), eco.lios_per_sec,
                static_cast<unsigned long long>(eco.fingerprint),
                base.lios_per_sec,
                static_cast<unsigned long long>(base.fingerprint));
    if (attach != nullptr) {
      ecostore::telemetry::profile::ProfileMeta meta;
      meta.workload = "file_server_20min";
      meta.policy = "eco_storage";
      meta.host_cpus = std::thread::hardware_concurrency();
      meta.wall_ns = static_cast<int64_t>(
          static_cast<double>(eco.logical_ios) / eco.lios_per_sec * 1e9);
      meta.dropped = attach->dropped();
      std::vector<ecostore::telemetry::profile::Span> spans =
          attach->Drain();
      meta.spans = static_cast<int64_t>(spans.size());
      ecostore::Status st = ecostore::telemetry::profile::ExportProfile(
          profile_base, meta, spans);
      if (!st.ok()) {
        std::fprintf(stderr, "profile export failed: %s\n",
                     st.message().c_str());
        return 1;
      }
      std::printf("profile: %lld spans (%lld dropped) -> "
                  "%s.profile.jsonl + %s.profile.trace.json\n",
                  static_cast<long long>(meta.spans),
                  static_cast<long long>(meta.dropped),
                  profile_base.c_str(), profile_base.c_str());
    }
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ecostore::WriteBenchPerfJson(nullptr);
}
