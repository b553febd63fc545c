// Hybrid tier unit tests, driving the device directly with a
// controllable fake HDD: write acks at flash latency, HDD failures are
// absorbed (not surfaced) before any detection, the tier detector flips
// to flash-only, probes bring the node back through draining to normal,
// a drain-time failure falls straight back to flash-only, and a
// prefetch hint reaches the bulk tier without changing any outcome.
#include "cluster/hybrid.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace deepnote::cluster {
namespace {

using sim::Duration;
using sim::SimTime;

// A bulk tier with a switch: healthy it serves in ~6 ms; failing it
// burns a 300 ms timeout and errors — the parked-head signature.
class FakeHdd final : public storage::BlockDevice {
 public:
  std::uint64_t total_sectors() const override { return 4096; }

  storage::BlockIo read(sim::SimTime now, std::uint64_t, std::uint32_t,
                        std::span<std::byte>) override {
    ++reads;
    return outcome(now);
  }
  storage::BlockIo write(sim::SimTime now, std::uint64_t, std::uint32_t,
                         std::span<const std::byte>) override {
    ++writes;
    return outcome(now);
  }
  storage::BlockIo flush(sim::SimTime now) override {
    ++flushes;
    return outcome(now);
  }
  void prefetch() const override { ++prefetches; }

  bool failing = false;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  mutable std::uint64_t prefetches = 0;

 private:
  storage::BlockIo outcome(sim::SimTime now) const {
    if (failing) {
      return {storage::BlockStatus::kIoError,
              now + Duration::from_millis(300.0)};
    }
    return {storage::BlockStatus::kOk, now + Duration::from_millis(6.0)};
  }
};

// Small flash tier (64 blocks x 4 pages x 1 KiB) with payload retention
// so byte-level assertions work; the FTL logical span (448 sectors)
// sits inside the fake HDD's 4096.
HybridConfig test_config() {
  HybridConfig config;
  config.flash.page_sectors = 2;
  config.flash.pages_per_block = 4;
  config.flash.blocks = 64;
  config.flash.retain_data = true;
  return config;
}

std::vector<std::byte> pattern(std::size_t sectors, std::uint8_t seed) {
  std::vector<std::byte> out(sectors * storage::kBlockSectorSize);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((seed + i * 11) & 0xFF);
  }
  return out;
}

struct Rig {
  FakeHdd hdd;
  HybridDevice tier{hdd, test_config()};

  // Write `pages` distinct pages at t; the flash mirror gets real bytes.
  void populate(SimTime t, int pages) {
    for (int p = 0; p < pages; ++p) {
      const std::vector<std::byte> buf =
          pattern(2, static_cast<std::uint8_t>(p));
      ASSERT_TRUE(
          tier.write(t, static_cast<std::uint64_t>(p) * 2, 2, buf).ok());
    }
  }

  // Three consecutive HDD errors trip the tier detector's burst rule.
  void trip_to_flash_only(SimTime t) {
    hdd.failing = true;
    std::vector<std::byte> out(2 * storage::kBlockSectorSize);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(tier.read(t + Duration::from_millis(i), 0, 2, out).ok())
          << "HDD failure must be absorbed, not surfaced";
    }
    ASSERT_EQ(tier.mode(), TierMode::kFlashOnly);
  }
};

TEST(HybridDeviceTest, NormalModeAcksOnFlashAndMirrorsToHdd) {
  Rig rig;
  const std::vector<std::byte> buf = pattern(2, 1);
  const storage::BlockIo w = rig.tier.write(SimTime::zero(), 0, 2, buf);
  ASSERT_TRUE(w.ok());
  // The ack point is flash (hundreds of microseconds), not the 6 ms HDD.
  EXPECT_LT((w.complete - SimTime::zero()).seconds(), 0.001);
  EXPECT_EQ(rig.hdd.writes, 1u);  // mirrored in parallel
  EXPECT_EQ(rig.tier.dirty_pages(), 0u);

  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(rig.tier.read(SimTime::zero(), 0, 2, out).ok());
  EXPECT_EQ(rig.hdd.reads, 1u);
  EXPECT_EQ(rig.tier.stats().hdd_reads, 1u);
  EXPECT_EQ(rig.tier.stats().flash_reads, 0u);
}

TEST(HybridDeviceTest, OutOfSpanOpsPassStraightThrough) {
  Rig rig;
  std::vector<std::byte> buf(2 * storage::kBlockSectorSize);
  const std::uint64_t beyond = rig.tier.ftl().total_sectors();
  ASSERT_TRUE(rig.tier.read(SimTime::zero(), beyond, 2, buf).ok());
  EXPECT_EQ(rig.hdd.reads, 1u);
  ASSERT_TRUE(rig.tier.write(SimTime::zero(), beyond, 2, buf).ok());
  EXPECT_EQ(rig.hdd.writes, 1u);
  EXPECT_EQ(rig.tier.stats().flash_reads, 0u);
}

TEST(HybridDeviceTest, HddFailuresAreAbsorbedBeforeAnyDetection) {
  Rig rig;
  rig.populate(SimTime::zero(), 1);
  rig.hdd.failing = true;
  std::vector<std::byte> out(2 * storage::kBlockSectorSize);
  // First failure: detector has not alerted, yet the read succeeds with
  // the flash mirror's bytes — availability never depended on detection.
  const storage::BlockIo r =
      rig.tier.read(SimTime::zero() + Duration::from_seconds(1), 0, 2, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, pattern(2, 0));
  EXPECT_EQ(rig.tier.stats().absorbed_errors, 1u);
  EXPECT_EQ(rig.tier.mode(), TierMode::kNormal);
  // The fallback still pays the failed HDD attempt's 300 ms first —
  // detection shapes this tail, not the outcome.
  EXPECT_GE((r.complete - (SimTime::zero() + Duration::from_seconds(1)))
                .seconds(),
            0.300);
}

TEST(HybridDeviceTest, ErrorBurstFlipsToFlashOnlyAndStopsHddTraffic) {
  Rig rig;
  rig.populate(SimTime::zero(), 4);
  rig.trip_to_flash_only(SimTime::zero() + Duration::from_seconds(1));
  EXPECT_EQ(rig.tier.stats().mode_changes, 1u);

  // Flash-only: writes dirty pages, no HDD mirror traffic.
  const std::uint64_t hdd_writes_before = rig.hdd.writes;
  const std::vector<std::byte> buf = pattern(2, 9);
  const SimTime t = SimTime::zero() + Duration::from_millis(1100.0);
  ASSERT_TRUE(rig.tier.write(t, 0, 2, buf).ok());
  ASSERT_TRUE(rig.tier.write(t, 2, 2, buf).ok());
  EXPECT_EQ(rig.hdd.writes, hdd_writes_before);
  EXPECT_EQ(rig.tier.dirty_pages(), 2u);
  EXPECT_GT(rig.tier.stats().flash_only_ops, 0u);

  // Reads come from flash and still return the latest bytes.
  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
  EXPECT_EQ(out, buf);
}

TEST(HybridDeviceTest, ProbesDriveDrainBackToNormal) {
  Rig rig;
  rig.populate(SimTime::zero(), 6);
  rig.trip_to_flash_only(SimTime::zero() + Duration::from_seconds(1));

  // Dirty six pages while the attack is on.
  const SimTime during = SimTime::zero() + Duration::from_millis(1400.0);
  for (int p = 0; p < 6; ++p) {
    const std::vector<std::byte> buf =
        pattern(2, static_cast<std::uint8_t>(32 + p));
    ASSERT_TRUE(
        rig.tier.write(during, static_cast<std::uint64_t>(p) * 2, 2, buf)
            .ok());
  }
  ASSERT_EQ(rig.tier.dirty_pages(), 6u);

  // Attack ends; ops spaced past the probe interval accumulate good
  // probes until the drain starts.
  rig.hdd.failing = false;
  std::vector<std::byte> out(2 * storage::kBlockSectorSize);
  SimTime t = SimTime::zero() + Duration::from_seconds(2);
  const HybridConfig config = test_config();
  for (std::uint32_t i = 0; i < config.probe_good_needed; ++i) {
    ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
    t = t + Duration::from_millis(300.0);
  }
  EXPECT_EQ(rig.tier.mode(), TierMode::kDraining);
  EXPECT_EQ(rig.tier.stats().probes, config.probe_good_needed);

  // Each serving op also writes back a batch; two ops drain all six.
  const std::uint64_t hdd_writes_before = rig.hdd.writes;
  ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
  ASSERT_TRUE(
      rig.tier.read(t + Duration::from_millis(10.0), 0, 2, out).ok());
  EXPECT_EQ(rig.tier.mode(), TierMode::kNormal);
  EXPECT_EQ(rig.tier.dirty_pages(), 0u);
  EXPECT_EQ(rig.tier.stats().drained_pages, 6u);
  EXPECT_EQ(rig.hdd.writes - hdd_writes_before, 6u);
}

TEST(HybridDeviceTest, FailedProbesKeepTheNodeOnFlash) {
  Rig rig;
  rig.populate(SimTime::zero(), 2);
  rig.trip_to_flash_only(SimTime::zero() + Duration::from_seconds(1));
  // Attack still on: probes fail, the good-probe count never builds.
  std::vector<std::byte> out(2 * storage::kBlockSectorSize);
  SimTime t = SimTime::zero() + Duration::from_seconds(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
    t = t + Duration::from_millis(300.0);
  }
  EXPECT_EQ(rig.tier.mode(), TierMode::kFlashOnly);
  EXPECT_GT(rig.tier.stats().probes, 8u);
}

TEST(HybridDeviceTest, DrainFailureFallsBackToFlashOnly) {
  Rig rig;
  rig.populate(SimTime::zero(), 4);
  rig.trip_to_flash_only(SimTime::zero() + Duration::from_seconds(1));
  const SimTime during = SimTime::zero() + Duration::from_millis(1400.0);
  const std::vector<std::byte> buf = pattern(2, 7);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(
        rig.tier.write(during, static_cast<std::uint64_t>(p) * 2, 2, buf)
            .ok());
  }

  // Recover to draining...
  rig.hdd.failing = false;
  std::vector<std::byte> out(2 * storage::kBlockSectorSize);
  SimTime t = SimTime::zero() + Duration::from_seconds(2);
  for (std::uint32_t i = 0; i < test_config().probe_good_needed; ++i) {
    ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
    t = t + Duration::from_millis(300.0);
  }
  ASSERT_EQ(rig.tier.mode(), TierMode::kDraining);

  // ...then the attack resumes mid-drain: back to flash-only, the
  // remaining dirty pages wait for the next pass.
  rig.hdd.failing = true;
  ASSERT_TRUE(rig.tier.read(t, 0, 2, out).ok());
  EXPECT_EQ(rig.tier.mode(), TierMode::kFlashOnly);
  EXPECT_GT(rig.tier.dirty_pages(), 0u);
}

TEST(HybridDeviceTest, FlushAbsorbsBulkTierFailure) {
  Rig rig;
  rig.hdd.failing = true;
  // Data is durable on flash at the ack; a bulk flush error is noise.
  EXPECT_TRUE(rig.tier.flush(SimTime::zero()).ok());
  EXPECT_EQ(rig.hdd.flushes, 1u);
}

TEST(HybridDeviceTest, WearFeedsTheSmartMediaWearoutShape) {
  Rig rig;
  // Fresh tier: no erases, full health headroom for SMART 177 upstream.
  EXPECT_EQ(rig.tier.flash().mean_erase_count(), 0.0);
  EXPECT_GT(rig.tier.flash().config().rated_erase_cycles, 0u);
}

// What one pass of `run_script` observed: every op's status and
// completion time, and the tier's state at the end.
struct ScriptRun {
  std::vector<std::pair<bool, std::int64_t>> ops;
  HybridStats stats;
  TierMode mode = TierMode::kNormal;
  std::uint64_t dirty = 0;
  std::uint64_t hdd_reads = 0;
  std::uint64_t hdd_writes = 0;
  std::uint64_t hdd_prefetches = 0;
};

// Drives a fresh rig through every tier mode: healthy traffic, an
// attack (absorbed failures, the flip to flash-only, failed probes,
// dirty writes), recovery (good probes, draining) and healthy traffic
// again. With `hinted`, the tier is told to prefetch before every op.
ScriptRun run_script(bool hinted) {
  Rig rig;
  ScriptRun run;
  std::vector<std::byte> out(2 * storage::kBlockSectorSize);
  SimTime t = SimTime::zero();
  const auto phase = [&](int ops, Duration gap) {
    for (int i = 0; i < ops; ++i) {
      if (hinted) rig.tier.prefetch();
      const std::uint64_t lba = static_cast<std::uint64_t>(i % 12) * 2;
      const storage::BlockIo io =
          i % 3 == 0 ? rig.tier.read(t, lba, 2, out)
                     : rig.tier.write(t, lba, 2,
                                      pattern(2, static_cast<std::uint8_t>(i)));
      run.ops.emplace_back(io.ok(), (io.complete - SimTime::zero()).ns());
      t = t + gap;
    }
  };
  phase(30, Duration::from_millis(2.0));
  rig.hdd.failing = true;
  phase(30, Duration::from_millis(100.0));
  rig.hdd.failing = false;
  phase(40, Duration::from_millis(100.0));
  run.stats = rig.tier.stats();
  run.mode = rig.tier.mode();
  run.dirty = rig.tier.dirty_pages();
  run.hdd_reads = rig.hdd.reads;
  run.hdd_writes = rig.hdd.writes;
  run.hdd_prefetches = rig.hdd.prefetches;
  return run;
}

TEST(HybridDeviceTest, PrefetchForwardsToTheBulkTierAndChangesNothing) {
  Rig rig;
  rig.tier.prefetch();
  EXPECT_EQ(rig.hdd.prefetches, 1u);
  rig.tier.prefetch();
  EXPECT_EQ(rig.hdd.prefetches, 2u);

  const ScriptRun plain = run_script(false);
  const ScriptRun hinted = run_script(true);
  // The script visits every mode and ends back in kNormal.
  ASSERT_GE(plain.stats.mode_changes, 3u);
  ASSERT_GT(plain.stats.drained_pages, 0u);
  ASSERT_EQ(plain.mode, TierMode::kNormal);
  EXPECT_EQ(plain.hdd_prefetches, 0u);
  EXPECT_EQ(hinted.hdd_prefetches, hinted.ops.size());

  EXPECT_EQ(hinted.ops, plain.ops);
  EXPECT_EQ(hinted.mode, plain.mode);
  EXPECT_EQ(hinted.dirty, plain.dirty);
  EXPECT_EQ(hinted.hdd_reads, plain.hdd_reads);
  EXPECT_EQ(hinted.hdd_writes, plain.hdd_writes);
  EXPECT_EQ(hinted.stats.hdd_reads, plain.stats.hdd_reads);
  EXPECT_EQ(hinted.stats.flash_reads, plain.stats.flash_reads);
  EXPECT_EQ(hinted.stats.absorbed_errors, plain.stats.absorbed_errors);
  EXPECT_EQ(hinted.stats.flash_only_ops, plain.stats.flash_only_ops);
  EXPECT_EQ(hinted.stats.probes, plain.stats.probes);
  EXPECT_EQ(hinted.stats.drained_pages, plain.stats.drained_pages);
  EXPECT_EQ(hinted.stats.mode_changes, plain.stats.mode_changes);
}

}  // namespace
}  // namespace deepnote::cluster
