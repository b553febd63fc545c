#include "storage/os_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hdd/drive.h"
#include "sim/rng.h"

namespace deepnote::storage {
namespace {

using sim::Duration;
using sim::SimTime;

hdd::HddConfig drive_config() {
  hdd::HddConfig cfg;
  cfg.geometry = hdd::Geometry::barracuda_500gb();
  cfg.servo.compliance_floor_nm_per_pa = 0.01;
  cfg.servo.rejection_corner_hz = 0.0;
  cfg.servo.false_trip_max_hz = 0.0;
  cfg.rng_seed = 7;
  return cfg;
}

OsDeviceConfig os_config() {
  OsDeviceConfig cfg;
  cfg.command_timeout = Duration::from_seconds(25.0);
  cfg.attempts = 3;
  return cfg;
}

structure::DriveExcitation park_tone() {
  return structure::DriveExcitation{650.0, 3000.0, true};  // 30 nm: park
}

TEST(OsDeviceTest, PassThroughWhenHealthy) {
  hdd::Hdd drive(drive_config());
  OsBlockDevice dev(drive, os_config());
  std::vector<std::byte> in(8 * kBlockSectorSize, std::byte{0x11});
  BlockIo w = dev.write(SimTime::zero(), 0, 8, in);
  ASSERT_TRUE(w.ok());
  std::vector<std::byte> out(in.size());
  BlockIo r = dev.read(w.complete, 0, 8, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(dev.stats().timeouts, 0u);
  EXPECT_EQ(dev.stats().buffer_io_errors, 0u);
}

TEST(OsDeviceTest, HungDriveTimesOutAfterAttemptsTimesTimeout) {
  hdd::Hdd drive(drive_config());
  OsBlockDevice dev(drive, os_config());
  drive.set_excitation(SimTime::zero(), park_tone());
  std::vector<std::byte> out(8 * kBlockSectorSize);
  const BlockIo r = dev.read(SimTime::from_seconds(1), 0, 8, out);
  EXPECT_FALSE(r.ok());
  // 3 attempts x 25 s: the buffer I/O error lands exactly 75 s after
  // submission — the cadence behind the paper's ~80 s crashes.
  EXPECT_NEAR((r.complete - SimTime::from_seconds(1)).seconds(), 75.0,
              1e-6);
  EXPECT_EQ(dev.stats().timeouts, 3u);
  EXPECT_EQ(dev.stats().device_resets, 3u);
  EXPECT_EQ(dev.stats().buffer_io_errors, 1u);
}

TEST(OsDeviceTest, RecoversQuicklyOnceAttackStops) {
  hdd::Hdd drive(drive_config());
  OsBlockDevice dev(drive, os_config());
  drive.set_excitation(SimTime::zero(), park_tone());
  std::vector<std::byte> out(8 * kBlockSectorSize);
  const BlockIo dead = dev.read(SimTime::zero(), 0, 8, out);
  EXPECT_FALSE(dead.ok());
  // Attack ends; the next command completes promptly.
  drive.set_excitation(dead.complete, structure::DriveExcitation{});
  const BlockIo alive = dev.read(dead.complete, 0, 8, out);
  EXPECT_TRUE(alive.ok());
  EXPECT_LT((alive.complete - dead.complete).seconds(), 1.0);
  EXPECT_EQ(dev.stats().buffer_io_errors, 1u);
}

TEST(OsDeviceTest, FlushTimeoutCountsAsError) {
  hdd::Hdd drive(drive_config());
  OsBlockDevice dev(drive, os_config());
  // Park first, then queue cached writes (the electronics still accept
  // them); the flush cannot drain.
  drive.set_excitation(SimTime::zero(), park_tone());
  std::vector<std::byte> in(8 * kBlockSectorSize, std::byte{0x22});
  SimTime t = SimTime::zero();
  for (int i = 0; i < 64; ++i) {
    t = dev.write(t, static_cast<std::uint64_t>(i) * 8, 8, in).complete;
  }
  const BlockIo f = dev.flush(t);
  EXPECT_FALSE(f.ok());
  EXPECT_NEAR((f.complete - t).seconds(), 75.0, 1e-6);
}

TEST(OsDeviceTest, MediaErrorsAreRetriedImmediately) {
  // Moderate vibration + a tiny retry budget: commands fail fast with
  // media errors (not timeouts); the OS retries from the error time and
  // eventually reports a buffer I/O error without any device reset.
  hdd::HddConfig cfg = drive_config();
  cfg.max_media_retries = 2;
  cfg.write_cache_bytes = 4096;  // force the media path immediately
  hdd::Hdd drive(cfg);
  OsBlockDevice dev(drive, os_config());
  // 2.2x the write threshold: p ~ 0.23 per attempt, so a 2-retry budget
  // usually burns out.
  drive.set_excitation(SimTime::zero(),
                       structure::DriveExcitation{650.0, 2200.0, true});
  std::vector<std::byte> in(8 * kBlockSectorSize, std::byte{0x33});
  SimTime t = SimTime::zero();
  std::uint64_t media_error_commands = 0;
  for (int i = 0; i < 40; ++i) {
    const BlockIo io = dev.write(t, static_cast<std::uint64_t>(i) * 8, 8, in);
    t = io.complete;
    if (!io.ok()) ++media_error_commands;
  }
  EXPECT_GT(drive.stats().media_errors, 0u);
  // Failing commands completed far faster than the 75 s timeout path
  // (media error retries are immediate).
  EXPECT_LT(t.seconds(), 60.0);
  EXPECT_EQ(dev.stats().timeouts, 0u);
  EXPECT_EQ(dev.stats().buffer_io_errors, media_error_commands);
}

TEST(OsDeviceTest, PrefetchHintChangesNothing) {
  // Two same-seed drives run one seeded mixed stream: random and
  // sequential reads, writes through a small cache, flushes, tones that
  // fault, false-trip and park the heads, and the command timeouts a
  // parked drive causes. Only one device gets the prefetch hint before
  // every command, and every result must still agree.
  hdd::HddConfig cfg = drive_config();
  cfg.servo.false_trip_max_hz = 6.0;
  cfg.write_cache_bytes = 64 * 1024;
  OsDeviceConfig os;
  os.command_timeout = Duration::from_millis(150.0);
  os.attempts = 2;
  hdd::Hdd plain_drive(cfg);
  hdd::Hdd hinted_drive(cfg);
  OsBlockDevice plain(plain_drive, os);
  OsBlockDevice hinted(hinted_drive, os);
  const BlockDevice& hint = hinted;

  const structure::DriveExcitation tones[] = {
      {}, {650.0, 1500.0, true}, {650.0, 2200.0, true}, park_tone()};
  sim::Rng rng(0x7e1);
  std::vector<std::byte> in(8 * kBlockSectorSize);
  std::vector<std::byte> out_plain(in.size());
  std::vector<std::byte> out_hinted(in.size());
  SimTime t = SimTime::zero();
  std::uint64_t lba = 0;
  for (int i = 0; i < 4000; ++i) {
    t = t + Duration::from_seconds(rng.exponential(0.005));
    const double pick = rng.next_double();
    if (pick < 0.05) {
      const structure::DriveExcitation& tone = tones[rng.next_u64() % 4];
      plain_drive.set_excitation(t, tone);
      hinted_drive.set_excitation(t, tone);
      continue;
    }
    // 2,048 objects keep the retained bytes small.
    lba = rng.bernoulli(0.3) ? (lba + 8) % (2048 * 8)
                             : (rng.next_u64() % 2048) * 8;
    hint.prefetch();
    BlockIo a;
    BlockIo b;
    if (pick < 0.55) {
      a = plain.read(t, lba, 8, out_plain);
      b = hinted.read(t, lba, 8, out_hinted);
      ASSERT_EQ(out_plain, out_hinted) << "command " << i;
    } else if (pick < 0.95) {
      std::fill(in.begin(), in.end(), static_cast<std::byte>(i));
      a = plain.write(t, lba, 8, in);
      b = hinted.write(t, lba, 8, in);
    } else {
      a = plain.flush(t);
      b = hinted.flush(t);
    }
    ASSERT_EQ(a.status, b.status) << "command " << i;
    ASSERT_EQ(a.complete, b.complete) << "command " << i;
    ASSERT_EQ(plain_drive.parked(), hinted_drive.parked()) << "command " << i;
    t = sim::max(t, a.complete);
  }

  const hdd::HddStats& p = plain_drive.stats();
  const hdd::HddStats& h = hinted_drive.stats();
  EXPECT_EQ(p.reads, h.reads);
  EXPECT_EQ(p.writes, h.writes);
  EXPECT_EQ(p.flushes, h.flushes);
  EXPECT_EQ(p.bytes_read, h.bytes_read);
  EXPECT_EQ(p.bytes_written, h.bytes_written);
  EXPECT_EQ(p.media_retries, h.media_retries);
  EXPECT_EQ(p.media_errors, h.media_errors);
  EXPECT_EQ(p.hung_commands, h.hung_commands);
  EXPECT_EQ(p.shock_parks, h.shock_parks);
  EXPECT_EQ(plain.stats().commands, hinted.stats().commands);
  EXPECT_EQ(plain.stats().timeouts, hinted.stats().timeouts);
  EXPECT_EQ(plain.stats().device_resets, hinted.stats().device_resets);
  EXPECT_EQ(plain.stats().buffer_io_errors, hinted.stats().buffer_io_errors);
  // The stream reached every path it claims to.
  EXPECT_GT(p.flushes, 0u);
  EXPECT_GT(p.media_retries, 0u);
  EXPECT_GT(p.shock_parks, 0u);
  EXPECT_GT(plain.stats().timeouts, 0u);
}

TEST(OsDeviceTest, TotalSectorsMatchesDrive) {
  hdd::Hdd drive(drive_config());
  OsBlockDevice dev(drive, os_config());
  EXPECT_EQ(dev.total_sectors(), drive.geometry().total_sectors());
}

}  // namespace
}  // namespace deepnote::storage
