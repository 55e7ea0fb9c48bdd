#ifndef ECOSTORE_REPLAY_MIGRATION_ENGINE_H_
#define ECOSTORE_REPLAY_MIGRATION_ENGINE_H_

#include <deque>
#include <memory>

#include "common/sim_time.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace ecostore::replay {

/// Migration engine tuning knobs.
struct MigrationOptions {
  int64_t chunk_bytes = 4LL * 1024 * 1024;
  /// Sustained copy throughput per job (bytes/second).
  double rate_bytes_per_second = 48.0 * 1024 * 1024;
  int32_t block_size = 64 * 1024;
  /// Items copied concurrently (distinct enclosure pairs in practice).
  int max_concurrent_jobs = 4;
  /// Background-priority throttle: a chunk is deferred while its source
  /// or target queue is this far behind (paper §V-A: migration "controls
  /// data transfer I/O throughputs so as to not influence the
  /// applications' performance").
  SimDuration busy_backoff_threshold = 50 * kMillisecond;
  SimDuration busy_backoff_delay = 500 * kMillisecond;
};

/// \brief Executes data-item migrations in the background, one item at a
/// time, rate-throttled so application I/O is not disturbed (the paper's
/// runtime movement function, §V-A).
///
/// Each chunk issues a bulk read on the source enclosure and a bulk write
/// on the target; when the item's last chunk lands, the virtualization
/// mapping flips to the new enclosure. Block-level moves (for DDR-style
/// baselines) are accounted immediately as a read/write pair without any
/// remapping.
class MigrationEngine {
 public:
  using Options = MigrationOptions;

  MigrationEngine(sim::Simulator* simulator, storage::StorageSystem* system,
                  const Options& options);

  /// Enqueues a whole-item move (FIFO). Stale requests (item already on
  /// target by the time the job starts) are dropped.
  void RequestItemMove(DataItemId item, EnclosureId target);

  /// Accounts an immediate block-granular move of `bytes`.
  void RequestBlockMove(EnclosureId from, EnclosureId to, int64_t bytes);

  int64_t migrated_bytes() const { return migrated_bytes_; }
  int64_t completed_item_moves() const { return completed_item_moves_; }
  int64_t block_moves() const { return block_moves_; }
  bool idle() const { return active_jobs_ == 0 && queue_.empty(); }
  size_t queued_moves() const { return queue_.size(); }

 private:
  struct Job {
    DataItemId item;
    EnclosureId target;
    EnclosureId source = kInvalidEnclosure;
    int64_t remaining_bytes = 0;
  };

  void FillJobSlots();
  void RunChunk(std::shared_ptr<Job> job);

  sim::Simulator* sim_;
  storage::StorageSystem* system_;
  Options options_;

  std::deque<Job> queue_;
  int active_jobs_ = 0;

  int64_t migrated_bytes_ = 0;
  int64_t completed_item_moves_ = 0;
  int64_t block_moves_ = 0;
};

}  // namespace ecostore::replay

#endif  // ECOSTORE_REPLAY_MIGRATION_ENGINE_H_
