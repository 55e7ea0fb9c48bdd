// Integration tests for the StorageSystem facade: logical I/O paths,
// automatic spin-down, preload, write-delay and item moves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "bench/legacy_spindown.h"
#include "common/random.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace ecostore::storage {
namespace {

struct RecordingObserver : public StorageObserver {
  std::vector<trace::PhysicalIoRecord> physical;
  std::vector<std::pair<EnclosureId, PowerState>> power;
  std::vector<SimTime> power_at;
  std::vector<SimDuration> gaps;

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    physical.push_back(rec);
  }
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    (void)at;
    (void)enclosure;
    gaps.push_back(gap);
  }
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          PowerState state) override {
    power.emplace_back(enclosure, state);
    power_at.push_back(at);
  }
};

class StorageSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VolumeId v0 = catalog_.AddVolume(0);
    VolumeId v1 = catalog_.AddVolume(1);
    item_a_ = catalog_.AddItem("a", v0, 64 * kMiB, DataItemKind::kFile)
                  .value();
    item_b_ = catalog_.AddItem("b", v1, 64 * kMiB, DataItemKind::kFile)
                  .value();
    config_.num_enclosures = 2;
    system_ = std::make_unique<StorageSystem>(&sim_, config_, &catalog_);
    ASSERT_TRUE(system_->Init().ok());
    system_->SetObserver(&observer_);
  }

  trace::LogicalIoRecord Read(DataItemId item, int64_t offset,
                              int32_t size = 8192) {
    trace::LogicalIoRecord rec;
    rec.time = sim_.Now();
    rec.item = item;
    rec.offset = offset;
    rec.size = size;
    rec.type = IoType::kRead;
    return rec;
  }
  trace::LogicalIoRecord Write(DataItemId item, int64_t offset,
                               int32_t size = 8192) {
    trace::LogicalIoRecord rec = Read(item, offset, size);
    rec.type = IoType::kWrite;
    return rec;
  }

  sim::Simulator sim_;
  StorageConfig config_;
  DataItemCatalog catalog_;
  std::unique_ptr<StorageSystem> system_;
  RecordingObserver observer_;
  DataItemId item_a_ = kInvalidDataItem;
  DataItemId item_b_ = kInvalidDataItem;
};

TEST_F(StorageSystemTest, ReadMissGoesToCorrectEnclosure) {
  auto result = system_->SubmitLogicalIo(Read(item_b_, 0));
  EXPECT_FALSE(result.cache_hit);
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].enclosure, 1);
  EXPECT_EQ(observer_.physical[0].type, IoType::kRead);
  // Latency includes device service + positioning + cache hop.
  EXPECT_GT(result.latency, config_.enclosure.random_access_latency);
}

TEST_F(StorageSystemTest, RereadHitsCache) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  auto result = system_->SubmitLogicalIo(Read(item_a_, 0));
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.latency, config_.cache.hit_latency);
  EXPECT_EQ(observer_.physical.size(), 1u);  // no second device I/O
}

TEST_F(StorageSystemTest, WriteAbsorbedByCache) {
  auto result = system_->SubmitLogicalIo(Write(item_a_, 0));
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(result.latency, config_.cache.hit_latency);
  EXPECT_TRUE(observer_.physical.empty());  // destage comes later
}

TEST_F(StorageSystemTest, SpinDownOnlyWhenAllowed) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(10 * kMinute);
  EXPECT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOn);

  system_->SetSpinDownAllowed(0, true);
  sim_.RunUntil(20 * kMinute);
  EXPECT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOff);
  // The observer saw the power-off.
  bool saw_off = false;
  for (auto& [enc, state] : observer_.power) {
    if (enc == 0 && state == PowerState::kOff) saw_off = true;
  }
  EXPECT_TRUE(saw_off);
}

TEST_F(StorageSystemTest, IoWakesSleepingEnclosure) {
  system_->SetSpinDownAllowed(0, true);
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(10 * kMinute);
  ASSERT_EQ(system_->enclosure(0).state(sim_.Now()), PowerState::kOff);
  auto result = system_->SubmitLogicalIo(Read(item_a_, 16 * kMiB));
  EXPECT_GT(result.latency, config_.enclosure.spinup_time);
  EXPECT_EQ(system_->enclosure(0).spinup_count(), 1);
}

TEST_F(StorageSystemTest, PreloadServesReadsAfterLoad) {
  ASSERT_TRUE(
      system_->SetPreloadItems({{item_a_, catalog_.item(item_a_).size_bytes}})
          .ok());
  // The load is a bulk read on enclosure 0.
  ASSERT_FALSE(observer_.physical.empty());
  sim_.RunUntil(1 * kMinute);  // let the load complete
  auto result = system_->SubmitLogicalIo(Read(item_a_, 32 * kMiB - 8192));
  EXPECT_TRUE(result.cache_hit);
}

TEST_F(StorageSystemTest, WriteDelayedItemsDestageInBursts) {
  ASSERT_TRUE(system_->SetWriteDelayItems({item_a_}).ok());
  int64_t wd_block_limit = static_cast<int64_t>(
      config_.cache.write_delay_dirty_ratio *
      static_cast<double>(config_.cache.write_delay_area_bytes /
                          config_.cache.block_size));
  // Write just under the destage threshold: no physical I/O at all.
  for (int64_t i = 0; i + 1 < wd_block_limit; ++i) {
    system_->SubmitLogicalIo(Write(
        item_a_, i * config_.cache.block_size, config_.cache.block_size));
  }
  EXPECT_TRUE(observer_.physical.empty());
  // One more write crosses the enlarged dirty rate: a single bulk write.
  system_->SubmitLogicalIo(Write(item_a_, wd_block_limit *
                                              config_.cache.block_size,
                                 config_.cache.block_size));
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].type, IoType::kWrite);
  EXPECT_TRUE(observer_.physical[0].sequential);
}

TEST_F(StorageSystemTest, CommitItemMoveRedirectsIo) {
  ASSERT_TRUE(system_->CommitItemMove(item_a_, 1).ok());
  observer_.physical.clear();
  system_->SubmitLogicalIo(Read(item_a_, 0));
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].enclosure, 1);
}

TEST_F(StorageSystemTest, FinalizeRunFlushesDirtyBlocks) {
  system_->SubmitLogicalIo(Write(item_a_, 0));
  sim_.RunUntil(1 * kMinute);
  observer_.physical.clear();
  system_->FinalizeRun();
  ASSERT_EQ(observer_.physical.size(), 1u);
  EXPECT_EQ(observer_.physical[0].type, IoType::kWrite);
}

TEST_F(StorageSystemTest, EnergySplitsControllerAndEnclosures) {
  sim_.RunUntil(100 * kSecond);
  Joules controller = system_->ControllerEnergy();
  Joules enclosures = system_->EnclosureEnergy();
  EXPECT_DOUBLE_EQ(controller,
                   EnergyOf(config_.controller.base_power, 100 * kSecond));
  EXPECT_NEAR(enclosures,
              2 * EnergyOf(config_.enclosure.idle_power, 100 * kSecond),
              1.0);
  EXPECT_DOUBLE_EQ(system_->TotalEnergy(), controller + enclosures);
}

TEST_F(StorageSystemTest, IdleGapsReportedAboveFloor) {
  system_->SubmitLogicalIo(Read(item_a_, 0));
  sim_.RunUntil(sim_.Now() + 30 * kSecond);
  system_->SubmitLogicalIo(Read(item_a_, 16 * kMiB));
  ASSERT_EQ(observer_.gaps.size(), 1u);
  EXPECT_NEAR(ToSeconds(observer_.gaps[0]), 30.0, 0.1);
}

TEST_F(StorageSystemTest, ReallowKeepsEarlierPendingCheck) {
  const SimDuration timeout = config_.enclosure.spindown_timeout;
  system_->SetSpinDownAllowed(0, true);
  system_->SubmitPhysicalBulk(0, 1, 8192, IoType::kRead, false);
  const SimTime busy = system_->enclosure(0).busy_until();
  sim_.RunUntil(busy + kSecond);
  system_->SetSpinDownAllowed(0, false);
  sim_.RunUntil(busy + timeout - kSecond);
  // The re-allow requests its own check a full timeout from now, but the
  // one requested by the I/O is still pending and must still fire.
  system_->SetSpinDownAllowed(0, true);
  sim_.RunUntil(busy + 3 * timeout);
  ASSERT_EQ(observer_.power.size(), 1u);
  EXPECT_EQ(observer_.power[0],
            std::make_pair(EnclosureId{0}, PowerState::kOff));
  EXPECT_EQ(observer_.power_at[0], busy + timeout);
}

TEST_F(StorageSystemTest, SubmissionsKeepOneSpinDownEntryPerEnclosure) {
  system_->SetSpinDownAllowed(0, true);
  system_->SetSpinDownAllowed(1, true);
  for (int i = 0; i < 1000; ++i) {
    system_->SubmitPhysicalBulk(i % 2, 1, 8192, IoType::kRead, false);
    sim_.RunUntil(sim_.Now() + kMillisecond);
  }
  EXPECT_LE(sim_.stats().peak_heap_depth, 2u);
  sim_.RunAll();
  // Each enclosure idled out once: its first (dropped) check re-armed for
  // the last I/O's check, which powered it off.
  EXPECT_EQ(observer_.power.size(), 2u);
  EXPECT_EQ(sim_.stats().executed, 4);
}

TEST(StorageSystemInitTest, RejectsInvalidConfig) {
  sim::Simulator sim;
  DataItemCatalog catalog;
  StorageConfig config;
  config.num_enclosures = 0;
  StorageSystem system(&sim, config, &catalog);
  EXPECT_FALSE(system.Init().ok());
}

// ---------------------------------------------------------------------
// Idle-check timer vs the per-I/O check events of the seed
// (bench/legacy_spindown.h): one randomized operation stream drives both,
// and every observer-visible outcome must match.
// ---------------------------------------------------------------------

/// Observer of one array (StorageSystem or the legacy reference). It
/// records power transitions and idle gaps, and — like DDR's migration
/// hook — submits a nested I/O to the same enclosure from inside
/// OnPhysicalIo for every streamed I/O whose block hint is a multiple of 3,
/// then probes at exactly the nested I/O's check time.
template <typename Array>
struct SpinDownLog : public StorageObserver {
  using Entry = std::tuple<SimTime, EnclosureId, int64_t>;

  SpinDownLog(sim::Simulator* s, Array* a, SimDuration t)
      : sim(s), array(a), timeout(t) {}

  /// Schedules an event at `at` that records the state it sees and, when
  /// `submit` is set, submits one I/O to the enclosure.
  void Probe(EnclosureId enc, SimTime at, bool submit) {
    sim->ScheduleAt(at, [this, enc, submit] {
      probes.emplace_back(
          sim->Now(), enc,
          static_cast<int64_t>(array->enclosure(enc).state(sim->Now())));
      if (submit) {
        array->SubmitPhysicalBulk(enc, 1, 8192, IoType::kRead,
                                  /*sequential=*/false, /*block_hint=*/-2);
      }
    });
  }

  void OnPhysicalIo(const trace::PhysicalIoRecord& rec) override {
    physical++;
    if (rec.block >= 0 && rec.block % 3 == 0) {
      array->SubmitPhysicalBulk(rec.enclosure, 1 + rec.block % 7, 65536,
                                IoType::kWrite, /*sequential=*/true,
                                /*block_hint=*/-1);
      Probe(rec.enclosure,
            array->enclosure(rec.enclosure).busy_until() + timeout,
            /*submit=*/false);
    }
  }
  void OnIdleGapEnd(EnclosureId enclosure, SimTime at,
                    SimDuration gap) override {
    gaps.emplace_back(at, enclosure, gap);
  }
  void OnPowerStateChange(EnclosureId enclosure, SimTime at,
                          PowerState state) override {
    transitions.emplace_back(at, enclosure, static_cast<int64_t>(state));
  }

  sim::Simulator* sim;
  Array* array;
  SimDuration timeout;
  int64_t physical = 0;
  std::vector<Entry> transitions;
  std::vector<Entry> gaps;
  std::vector<Entry> probes;  ///< (time, enclosure, state) seen by probes
};

constexpr int kDiffEnclosures = 4;

/// Replays the operation stream of `seed` against one array: physical
/// submissions, spin-down permission flips, clock advances (from 0 to
/// beyond two timeouts, so enclosures cycle off → wake → off), and probes
/// scheduled at exactly an I/O's check time, after its check was
/// requested.
template <typename Array>
void DriveSpinDownOps(uint64_t seed, sim::Simulator* sim, Array* array,
                      SpinDownLog<Array>* log,
                      int64_t* reallows_while_pending) {
  const SimDuration timeout = log->timeout;
  Xoshiro256 rng(seed);
  std::vector<bool> allowed(kDiffEnclosures, false);
  std::vector<SimTime> check_due(kDiffEnclosures, -1);
  for (int64_t op = 0; op < 4000; ++op) {
    auto enc = static_cast<EnclosureId>(rng.UniformInt(0, kDiffEnclosures - 1));
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind < 4) {
      const int64_t n_ios = rng.UniformInt(1, 64);
      const bool sequential = rng.Bernoulli(0.5);
      array->SubmitPhysicalBulk(enc, n_ios, 8192, IoType::kRead, sequential,
                                /*block_hint=*/op);
      const SimTime check_at = array->enclosure(enc).busy_until() + timeout;
      if (allowed[static_cast<size_t>(enc)]) {
        check_due[static_cast<size_t>(enc)] = check_at;
      }
      if (rng.Bernoulli(0.3)) {
        const bool submit = rng.Bernoulli(0.5);
        log->Probe(enc, check_at, submit);
      }
    } else if (kind < 6) {
      const bool allow = rng.Bernoulli(0.6);
      if (allow && !allowed[static_cast<size_t>(enc)] &&
          check_due[static_cast<size_t>(enc)] > sim->Now()) {
        ++*reallows_while_pending;
      }
      allowed[static_cast<size_t>(enc)] = allow;
      array->SetSpinDownAllowed(enc, allow);
    } else {
      const int64_t scale = rng.UniformInt(0, 3);
      SimTime deadline = sim->Now();
      if (scale == 1) deadline += rng.UniformInt(1, 2 * kMillisecond);
      if (scale == 2) deadline += rng.UniformInt(1, 2 * timeout);
      if (scale == 3) deadline = array->enclosure(enc).busy_until() + timeout;
      sim->RunUntil(std::max(deadline, sim->Now()));
    }
  }
  sim->RunUntil(sim->Now() + 4 * timeout);
}

TEST(SpinDownTimerDifferentialTest, MatchesPerIoCheckEvents) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    StorageConfig config;
    config.num_enclosures = kDiffEnclosures;
    DataItemCatalog catalog;
    for (int e = 0; e < kDiffEnclosures; ++e) {
      VolumeId v = catalog.AddVolume(e);
      ASSERT_TRUE(catalog
                      .AddItem(std::string("i").append(std::to_string(e)), v,
                               64 * kMiB, DataItemKind::kFile)
                      .ok());
    }
    const SimDuration timeout = config.enclosure.spindown_timeout;

    sim::Simulator sim;
    StorageSystem system(&sim, config, &catalog);
    ASSERT_TRUE(system.Init().ok());
    SpinDownLog<StorageSystem> log(&sim, &system, timeout);
    system.SetObserver(&log);
    int64_t reallows = 0;
    DriveSpinDownOps(seed, &sim, &system, &log, &reallows);

    sim::Simulator legacy_sim;
    legacy::LegacySpinDownArray legacy(&legacy_sim, config);
    SpinDownLog<legacy::LegacySpinDownArray> legacy_log(&legacy_sim, &legacy,
                                                        timeout);
    legacy.AddObserver(&legacy_log);
    int64_t legacy_reallows = 0;
    DriveSpinDownOps(seed, &legacy_sim, &legacy, &legacy_log,
                     &legacy_reallows);

    SCOPED_TRACE(testing::Message() << "seed " << seed);
    ASSERT_EQ(sim.Now(), legacy_sim.Now());
    EXPECT_EQ(log.transitions, legacy_log.transitions);
    EXPECT_EQ(log.gaps, legacy_log.gaps);
    EXPECT_EQ(log.probes, legacy_log.probes);
    EXPECT_EQ(log.physical, legacy_log.physical);
    for (EnclosureId e = 0; e < kDiffEnclosures; ++e) {
      DiskEnclosure& now_enc = system.enclosure(e);
      DiskEnclosure& ref_enc = legacy.enclosure(e);
      EXPECT_EQ(now_enc.spinup_count(), ref_enc.spinup_count());
      EXPECT_EQ(now_enc.served_ios(), ref_enc.served_ios());
      const Joules ref = ref_enc.Energy(sim.Now());
      EXPECT_LE(std::fabs(now_enc.Energy(sim.Now()) - ref), 1e-9 * ref);
    }

    // The stream reached every case the timer treats specially.
    EXPECT_GT(reallows, 0);
    EXPECT_GT(std::count_if(log.transitions.begin(), log.transitions.end(),
                            [](const auto& t) {
                              return std::get<2>(t) ==
                                     static_cast<int64_t>(PowerState::kOff);
                            }),
              10);
    EXPECT_GT(system.enclosure(0).spinup_count(), 2);
    EXPECT_FALSE(log.probes.empty());
    // Dropped checks never reach the heap.
    EXPECT_LT(sim.stats().executed, legacy_sim.stats().executed);
  }
}

}  // namespace
}  // namespace ecostore::storage
