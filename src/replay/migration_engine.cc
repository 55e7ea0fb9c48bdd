#include "replay/migration_engine.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace ecostore::replay {

MigrationEngine::MigrationEngine(sim::Simulator* simulator,
                                 storage::StorageSystem* system,
                                 const Options& options)
    : sim_(simulator), system_(system), options_(options) {
  assert(simulator != nullptr);
  assert(system != nullptr);
  assert(options_.chunk_bytes > 0);
  assert(options_.rate_bytes_per_second > 0);
}

void MigrationEngine::RequestItemMove(DataItemId item, EnclosureId target) {
  if (system_->virtualization().catalog().item(item).pinned) return;
  queue_.push_back(Job{item, target, kInvalidEnclosure, 0});
  FillJobSlots();
}

void MigrationEngine::RequestBlockMove(EnclosureId from, EnclosureId to,
                                       int64_t bytes) {
  if (bytes <= 0 || from == to) return;
  telemetry::Recorder* recorder = system_->telemetry();
  if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
    recorder->Record(telemetry::MakeMigrationEvent(
        sim_->Now(), telemetry::EventKind::kBlockMove, kInvalidDataItem,
        from, to, bytes));
  }
  int64_t n_ios = std::max<int64_t>(1, bytes / options_.block_size);
  system_->SubmitPhysicalBulk(from, n_ios, bytes, IoType::kRead,
                              /*sequential=*/false);
  system_->SubmitPhysicalBulk(to, n_ios, bytes, IoType::kWrite,
                              /*sequential=*/false);
  migrated_bytes_ += bytes;
  block_moves_++;
}

void MigrationEngine::FillJobSlots() {
  while (active_jobs_ < options_.max_concurrent_jobs && !queue_.empty()) {
    Job job = queue_.front();
    queue_.pop_front();
    EnclosureId source = system_->virtualization().EnclosureOf(job.item);
    if (source == job.target) continue;  // stale request
    job.source = source;
    job.remaining_bytes =
        system_->virtualization().catalog().item(job.item).size_bytes;
    active_jobs_++;
    telemetry::Recorder* recorder = system_->telemetry();
    if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
      recorder->Record(telemetry::MakeMigrationEvent(
          sim_->Now(), telemetry::EventKind::kMigrationBegin, job.item,
          job.source, job.target, job.remaining_bytes));
    }
    RunChunk(std::make_shared<Job>(job));
  }
}

void MigrationEngine::RunChunk(std::shared_ptr<Job> job) {
  // Background priority: stay out of the way while either end is busy
  // with application I/O.
  SimTime now = sim_->Now();
  SimTime src_busy = system_->enclosure(job->source).busy_until();
  SimTime dst_busy = system_->enclosure(job->target).busy_until();
  if (std::max(src_busy, dst_busy) > now + options_.busy_backoff_threshold) {
    telemetry::Recorder* recorder = system_->telemetry();
    if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
      recorder->Record(telemetry::MakeMigrationEvent(
          now, telemetry::EventKind::kMigrationThrottle, job->item,
          job->source, job->target, job->remaining_bytes));
    }
    sim_->ScheduleAfter(options_.busy_backoff_delay,
                        [this, job] { RunChunk(job); });
    return;
  }

  int64_t chunk = std::min(options_.chunk_bytes, job->remaining_bytes);
  int64_t n_ios = std::max<int64_t>(1, chunk / options_.block_size);
  system_->SubmitPhysicalBulk(job->source, n_ios, chunk, IoType::kRead,
                              /*sequential=*/true);
  system_->SubmitPhysicalBulk(job->target, n_ios, chunk, IoType::kWrite,
                              /*sequential=*/true);
  migrated_bytes_ += chunk;
  job->remaining_bytes -= chunk;

  SimDuration pace = FromSeconds(static_cast<double>(chunk) /
                                 options_.rate_bytes_per_second);
  sim_->ScheduleAfter(std::max<SimDuration>(pace, 1), [this, job] {
    if (job->remaining_bytes > 0) {
      RunChunk(job);
      return;
    }
    Status st = system_->CommitItemMove(job->item, job->target);
    if (!st.ok()) {
      // Target filled up while the copy ran; the item stays where it was
      // and the next management period will re-plan.
      ECOSTORE_LOG(kDebug) << "migration commit failed: " << st.ToString();
    } else {
      completed_item_moves_++;
    }
    telemetry::Recorder* recorder = system_->telemetry();
    if (telemetry::Wants(recorder, telemetry::kClassMigration)) {
      // bytes < 0 reports a failed commit (paper §V-A re-plan case).
      int64_t size =
          system_->virtualization().catalog().item(job->item).size_bytes;
      recorder->Record(telemetry::MakeMigrationEvent(
          sim_->Now(), telemetry::EventKind::kMigrationEnd, job->item,
          job->source, job->target, st.ok() ? size : -1));
    }
    active_jobs_--;
    FillJobSlots();
  });
}

}  // namespace ecostore::replay
