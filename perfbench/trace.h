#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Outside-in tracing for the replay benchmark. The decorators below wrap
// the public virtual interfaces the replay engine calls through
// (Workload, StoragePolicy, PolicyActuator, LogicalIoSink) and time the
// calls into each layer; the engine's own wall-clock profiler supplies
// the ingest / period-end / finalize spans. Nothing here touches
// simulator state, so a traced run must reproduce the untraced run's
// fingerprint (the harness checks it).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "monitor/io_sink.h"
#include "policies/storage_policy.h"
#include "telemetry/profile/profiler.h"
#include "workload/workload.h"

namespace perfbench {

namespace es = ecostore;
using Clock = std::chrono::steady_clock;

/// One closed span: times are ns since the run's profiler epoch; `parent`
/// indexes the enclosing span (-1 at the root), filled by Nest().
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run_id = 0;
  int64_t dur() const { return end_ns - start_ns; }
};

/// Per-I/O sink calls are timed 1 in kSinkSample (estimated totals scale
/// the sampled time by calls / sampled calls): two clock reads on every
/// logical I/O would cost more than the fold they measure.
inline constexpr int64_t kSinkSample = 16;

/// Spans and counters of one traced experiment run, shared by the
/// decorators of that run.
class RunTrace {
 public:
  RunTrace(const es::telemetry::profile::Profiler* profiler, int run_id)
      : profiler_(profiler), run_id_(run_id) {}

  int64_t Ns(Clock::time_point t) const {
    return profiler_->SinceEpochNs(t);
  }
  void AddSpan(const char* name, Clock::time_point start,
               Clock::time_point end) {
    spans.push_back(Span{name, Ns(start), Ns(end), -1, run_id_});
  }

  std::vector<Span> spans;

  int64_t records = 0;
  Clock::time_point reset_at{};
  bool workload_exhausted = false;

  int64_t sink_calls = 0;
  int64_t sink_sampled_calls = 0;
  int64_t sink_sampled_ns = 0;

  /// Physical-I/O hook time, split by where the engine was when the hook
  /// fired: inside a policy period end (already inside that span), during
  /// ingest, or after the workload ran dry (the finalize drain).
  int64_t hook_calls = 0;
  int64_t hook_ns_period_end = 0;
  int64_t hook_ns_ingest = 0;
  int64_t hook_ns_finalize = 0;
  bool in_period_end = false;

  int64_t migration_requests = 0;

  double sink_ns_estimate() const {
    return sink_sampled_calls == 0
               ? 0.0
               : static_cast<double>(sink_sampled_ns) *
                     static_cast<double>(sink_calls) /
                     static_cast<double>(sink_sampled_calls);
  }

 private:
  const es::telemetry::profile::Profiler* profiler_;
  int run_id_;
};

class TracedWorkload final : public es::workload::Workload {
 public:
  TracedWorkload(es::workload::Workload* inner, RunTrace* trace)
      : inner_(inner), trace_(trace) {}

  const es::workload::WorkloadInfo& info() const override {
    return inner_->info();
  }
  const es::storage::DataItemCatalog& catalog() const override {
    return inner_->catalog();
  }
  bool Next(es::trace::LogicalIoRecord* rec) override {
    const bool more = inner_->Next(rec);
    if (more) {
      trace_->records++;
    } else {
      trace_->workload_exhausted = true;
    }
    return more;
  }
  size_t NextBatch(std::vector<es::trace::LogicalIoRecord>* out,
                   size_t max_records) override {
    const Clock::time_point start = Clock::now();
    const size_t n = inner_->NextBatch(out, max_records);
    trace_->AddSpan("workload.next_batch", start, Clock::now());
    trace_->records += static_cast<int64_t>(n);
    if (n == 0) trace_->workload_exhausted = true;
    return n;
  }
  void Reset() override {
    trace_->reset_at = Clock::now();
    trace_->records = 0;
    trace_->workload_exhausted = false;
    inner_->Reset();
    trace_->AddSpan("workload.reset", trace_->reset_at, Clock::now());
  }

 private:
  es::workload::Workload* inner_;
  RunTrace* trace_;
};

class TracedSink final : public es::monitor::LogicalIoSink {
 public:
  TracedSink(es::monitor::LogicalIoSink* inner, RunTrace* trace)
      : inner_(inner), trace_(trace) {}

  void OnLogicalIo(const es::trace::LogicalIoRecord& rec) override {
    if (trace_->sink_calls++ % kSinkSample != 0) {
      inner_->OnLogicalIo(rec);
      return;
    }
    const Clock::time_point start = Clock::now();
    inner_->OnLogicalIo(rec);
    trace_->sink_sampled_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count();
    trace_->sink_sampled_calls++;
  }

 private:
  es::monitor::LogicalIoSink* inner_;
  RunTrace* trace_;
};

/// Forwards every action to the engine's actuator, counting migration
/// requests and interposing a TracedSink on the monitor stream.
class TracedActuator final : public es::policies::PolicyActuator {
 public:
  explicit TracedActuator(RunTrace* trace) : trace_(trace) {}

  void Bind(es::policies::PolicyActuator* inner) { inner_ = inner; }

  es::SimTime Now() const override { return inner_->Now(); }
  void RequestMigration(es::DataItemId item,
                        es::EnclosureId target) override {
    trace_->migration_requests++;
    inner_->RequestMigration(item, target);
  }
  void RequestBlockMigration(es::EnclosureId from, es::EnclosureId to,
                             int64_t bytes) override {
    trace_->migration_requests++;
    inner_->RequestBlockMigration(from, to, bytes);
  }
  void SetWriteDelayItems(
      const std::unordered_set<es::DataItemId>& items) override {
    inner_->SetWriteDelayItems(items);
  }
  void SetPreloadItems(
      const std::vector<std::pair<es::DataItemId, int64_t>>& items) override {
    inner_->SetPreloadItems(items);
  }
  void SetSpinDownAllowed(es::EnclosureId enclosure, bool allowed) override {
    inner_->SetSpinDownAllowed(enclosure, allowed);
  }
  void TriggerImmediatePeriodEnd() override {
    inner_->TriggerImmediatePeriodEnd();
  }
  void PublishPlan(int32_t plan_id,
                   const std::vector<uint8_t>& item_patterns) override {
    inner_->PublishPlan(plan_id, item_patterns);
  }
  bool AttachLogicalIoSink(es::monitor::LogicalIoSink* sink) override {
    sink_ = sink != nullptr ? std::make_unique<TracedSink>(sink, trace_)
                            : nullptr;
    return inner_->AttachLogicalIoSink(sink_.get());
  }
  es::telemetry::Recorder* telemetry() const override {
    return inner_->telemetry();
  }

 private:
  RunTrace* trace_;
  es::policies::PolicyActuator* inner_ = nullptr;
  std::unique_ptr<TracedSink> sink_;
};

/// Times a policy's start, period ends and (for the baselines, the only
/// policies that override it) physical-I/O hook. `layer` names the module
/// the policy lives in ("core" for the proposed method, "policies" for
/// the baselines) and prefixes its spans.
class TracedPolicy final : public es::policies::StoragePolicy {
 public:
  TracedPolicy(es::policies::StoragePolicy* inner, RunTrace* trace,
               const std::string& layer)
      : inner_(inner),
        trace_(trace),
        start_span_(layer + ".start"),
        period_span_(layer + ".period_end"),
        time_hooks_(layer == "policies"),
        actuator_(trace) {}

  std::string name() const override { return inner_->name(); }
  es::SimDuration initial_period() const override {
    return inner_->initial_period();
  }
  void Start(const es::storage::StorageSystem& system,
             es::policies::PolicyActuator* actuator) override {
    actuator_.Bind(actuator);
    const Clock::time_point start = Clock::now();
    inner_->Start(system, &actuator_);
    trace_->AddSpan(start_span_.c_str(), start, Clock::now());
  }
  es::SimDuration OnPeriodEnd(
      const es::monitor::MonitorSnapshot& snapshot,
      const es::storage::StorageSystem& system,
      es::policies::PolicyActuator* actuator) override {
    actuator_.Bind(actuator);
    trace_->in_period_end = true;
    const Clock::time_point start = Clock::now();
    const es::SimDuration next =
        inner_->OnPeriodEnd(snapshot, system, &actuator_);
    trace_->AddSpan(period_span_.c_str(), start, Clock::now());
    trace_->in_period_end = false;
    return next;
  }
  void OnIdleGapEnd(es::EnclosureId enclosure, es::SimTime at,
                    es::SimDuration gap) override {
    inner_->OnIdleGapEnd(enclosure, at, gap);
  }
  void OnPowerOn(es::EnclosureId enclosure, es::SimTime at) override {
    inner_->OnPowerOn(enclosure, at);
  }
  void OnPhysicalIo(const es::trace::PhysicalIoRecord& rec) override {
    if (!time_hooks_) {
      inner_->OnPhysicalIo(rec);
      return;
    }
    const Clock::time_point start = Clock::now();
    inner_->OnPhysicalIo(rec);
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count();
    trace_->hook_calls++;
    if (trace_->in_period_end) {
      trace_->hook_ns_period_end += ns;
    } else if (trace_->workload_exhausted) {
      trace_->hook_ns_finalize += ns;
    } else {
      trace_->hook_ns_ingest += ns;
    }
  }
  int64_t placement_determinations() const override {
    return inner_->placement_determinations();
  }
  bool wants_logical_trace() const override {
    return inner_->wants_logical_trace();
  }

 private:
  es::policies::StoragePolicy* inner_;
  RunTrace* trace_;
  std::string start_span_;
  std::string period_span_;
  bool time_hooks_;
  TracedActuator actuator_;
};

/// Fills every span's `parent` by interval containment (spans of one
/// thread either nest or are disjoint) and returns each span's self time:
/// its duration minus the durations of its direct children.
inline std::vector<int64_t> Nest(std::vector<Span>* spans) {
  std::sort(spans->begin(), spans->end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  std::vector<int64_t> self(spans->size());
  std::vector<int> open;
  for (size_t i = 0; i < spans->size(); ++i) {
    Span& s = (*spans)[i];
    while (!open.empty() && (*spans)[open.back()].end_ns <= s.start_ns) {
      open.pop_back();
    }
    s.parent = open.empty() ? -1 : open.back();
    self[i] = s.dur();
    if (s.parent >= 0) self[s.parent] -= s.dur();
    open.push_back(static_cast<int>(i));
  }
  return self;
}

/// Converts the engine profiler's spans into named spans of this run.
inline void AppendProfilerSpans(
    const std::vector<es::telemetry::profile::Span>& raw, int run_id,
    std::vector<Span>* out) {
  for (const es::telemetry::profile::Span& s : raw) {
    out->push_back(Span{
        es::telemetry::profile::PhaseName(
            static_cast<es::telemetry::profile::Phase>(s.phase)),
        s.start_ns, s.start_ns + s.dur_ns, -1, run_id});
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
