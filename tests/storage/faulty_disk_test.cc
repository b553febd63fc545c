#include "storage/faulty_disk.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/flash/flash_device.h"
#include "storage/mem_disk.h"

namespace deepnote::storage {
namespace {

using sim::SimTime;

std::vector<std::byte> pattern(std::size_t sectors, std::uint8_t fill) {
  return std::vector<std::byte>(sectors * kBlockSectorSize,
                                static_cast<std::byte>(fill));
}

std::vector<std::byte> read_back(BlockDevice& dev, std::uint64_t lba,
                                 std::uint32_t sectors) {
  std::vector<std::byte> out(sectors * kBlockSectorSize);
  EXPECT_TRUE(dev.read(SimTime::zero(), lba, sectors, out).ok());
  return out;
}

TEST(FaultyDiskTest, BenignPlanPassesThrough) {
  MemDisk inner(256);
  FaultyDisk disk(inner);
  const auto data = pattern(4, 0x5a);
  ASSERT_TRUE(disk.write(SimTime::zero(), 8, 4, data).ok());
  ASSERT_TRUE(disk.flush(SimTime::zero()).ok());
  EXPECT_EQ(read_back(disk, 8, 4), data);
  EXPECT_EQ(read_back(inner, 8, 4), data);  // written through
  EXPECT_EQ(disk.writes_seen(), 1u);
  EXPECT_FALSE(disk.dead());
}

TEST(FaultyDiskTest, CutAtWriteKillsTheDevice) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cut_at_write = 1;
  FaultyDisk disk(inner, plan);

  ASSERT_TRUE(disk.write(SimTime::zero(), 0, 1, pattern(1, 0x01)).ok());
  // Write 1 is the cut: it fails, nothing persists, the device dies.
  EXPECT_FALSE(disk.write(SimTime::zero(), 8, 1, pattern(1, 0x02)).ok());
  EXPECT_TRUE(disk.dead());
  std::vector<std::byte> buf(kBlockSectorSize);
  EXPECT_FALSE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.flush(SimTime::zero()).ok());
  // Durable state: write 0 only.
  EXPECT_EQ(read_back(inner, 0, 1), pattern(1, 0x01));
  EXPECT_EQ(read_back(inner, 8, 1), pattern(1, 0x00));
  ASSERT_TRUE(disk.first_failure().has_value());
  EXPECT_EQ(disk.first_failure()->kind, DiskOpKind::kWrite);
  EXPECT_EQ(disk.first_failure()->lba, 8u);
}

TEST(FaultyDiskTest, ReviveClearsDeathButNotDurableState) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cut_at_write = 0;
  FaultyDisk disk(inner, plan);
  EXPECT_FALSE(disk.write(SimTime::zero(), 0, 1, pattern(1, 0xaa)).ok());
  EXPECT_TRUE(disk.dead());
  disk.revive();
  EXPECT_FALSE(disk.dead());
  ASSERT_TRUE(disk.write(SimTime::zero(), 0, 1, pattern(1, 0xbb)).ok());
  EXPECT_EQ(read_back(disk, 0, 1), pattern(1, 0xbb));
}

TEST(FaultyDiskTest, TornWritePersistsSectorPrefix) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.seed = 42;
  plan.cut_at_write = 0;
  plan.tear_cut_write = true;
  FaultyDisk disk(inner, plan);

  const auto data = pattern(8, 0x77);
  EXPECT_FALSE(disk.write(SimTime::zero(), 16, 8, data).ok());
  EXPECT_TRUE(disk.dead());
  // Some strict sector prefix persisted; the rest still zero.
  const auto got = read_back(inner, 16, 8);
  std::size_t persisted = 0;
  while (persisted < 8 &&
         got[persisted * kBlockSectorSize] == std::byte{0x77}) {
    ++persisted;
  }
  EXPECT_GE(persisted, 1u);
  EXPECT_LT(persisted, 8u);
  for (std::size_t s = persisted; s < 8; ++s) {
    EXPECT_EQ(got[s * kBlockSectorSize], std::byte{0x00});
  }
  // Deterministic: same plan seed, same prefix.
  MemDisk inner2(256);
  FaultyDisk disk2(inner2, plan);
  EXPECT_FALSE(disk2.write(SimTime::zero(), 16, 8, data).ok());
  EXPECT_EQ(read_back(inner2, 16, 8), got);
}

TEST(FaultyDiskTest, SingleSectorCutWriteCannotTear) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cut_at_write = 0;
  plan.tear_cut_write = true;
  FaultyDisk disk(inner, plan);
  EXPECT_FALSE(disk.write(SimTime::zero(), 4, 1, pattern(1, 0x99)).ok());
  // A 1-sector write has no interior boundary: all or nothing (nothing).
  EXPECT_EQ(read_back(inner, 4, 1), pattern(1, 0x00));
}

TEST(FaultyDiskTest, CacheHoldsWritesUntilFlush) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cache_window = 4;
  FaultyDisk disk(inner, plan);

  const auto data = pattern(2, 0x33);
  ASSERT_TRUE(disk.write(SimTime::zero(), 8, 2, data).ok());
  // Read-your-writes through the cache, but the device has nothing yet.
  EXPECT_EQ(read_back(disk, 8, 2), data);
  EXPECT_EQ(read_back(inner, 8, 2), pattern(2, 0x00));
  ASSERT_TRUE(disk.flush(SimTime::zero()).ok());
  EXPECT_EQ(read_back(inner, 8, 2), data);
}

TEST(FaultyDiskTest, CacheOverlayNewestWinsOnOverlap) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cache_window = 8;
  FaultyDisk disk(inner, plan);
  ASSERT_TRUE(disk.write(SimTime::zero(), 8, 4, pattern(4, 0x11)).ok());
  ASSERT_TRUE(disk.write(SimTime::zero(), 10, 1, pattern(1, 0x22)).ok());
  const auto got = read_back(disk, 8, 4);
  EXPECT_EQ(got[0 * kBlockSectorSize], std::byte{0x11});
  EXPECT_EQ(got[1 * kBlockSectorSize], std::byte{0x11});
  EXPECT_EQ(got[2 * kBlockSectorSize], std::byte{0x22});
  EXPECT_EQ(got[3 * kBlockSectorSize], std::byte{0x11});
}

TEST(FaultyDiskTest, CacheOverflowDrainsOldestEntries) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.cache_window = 2;
  FaultyDisk disk(inner, plan);
  ASSERT_TRUE(disk.write(SimTime::zero(), 0, 1, pattern(1, 0x01)).ok());
  ASSERT_TRUE(disk.write(SimTime::zero(), 1, 1, pattern(1, 0x02)).ok());
  ASSERT_TRUE(disk.write(SimTime::zero(), 2, 1, pattern(1, 0x03)).ok());
  // Window of 2: the oldest write was forced through.
  EXPECT_EQ(read_back(inner, 0, 1), pattern(1, 0x01));
  EXPECT_EQ(read_back(inner, 2, 1), pattern(1, 0x00));
}

TEST(FaultyDiskTest, CutUnderCachePersistsSeededSubset) {
  // With a cut under an 8-deep cache, only a seeded subset of the cached
  // writes persists. Across seeds we should see different subsets, and
  // the same seed must reproduce the same subset.
  const auto run_once = [](std::uint64_t seed) {
    MemDisk inner(256);
    FaultPlan plan;
    plan.seed = seed;
    plan.cache_window = 8;
    plan.cut_at_write = 6;
    FaultyDisk disk(inner, plan);
    for (std::uint32_t w = 0; w < 7; ++w) {
      disk.write(SimTime::zero(), w, 1,
                 pattern(1, static_cast<std::uint8_t>(w + 1)));
    }
    EXPECT_TRUE(disk.dead());
    std::vector<bool> survived(6);
    for (std::uint32_t w = 0; w < 6; ++w) {
      survived[w] = read_back(inner, w, 1)[0] != std::byte{0x00};
    }
    return survived;
  };
  const auto a1 = run_once(1);
  const auto a2 = run_once(1);
  EXPECT_EQ(a1, a2) << "same seed must persist the same subset";
  bool any_diff = false;
  for (std::uint64_t s = 2; s < 12 && !any_diff; ++s) {
    any_diff = run_once(s) != a1;
  }
  EXPECT_TRUE(any_diff) << "different seeds should vary the subset";
}

TEST(FaultyDiskTest, EioBurstIsTransient) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.eio_start = 1;
  plan.eio_len = 2;
  plan.eio_ops = fault_ops::kWrites;
  FaultyDisk disk(inner, plan);
  EXPECT_TRUE(disk.write(SimTime::zero(), 0, 1, pattern(1, 1)).ok());
  EXPECT_FALSE(disk.write(SimTime::zero(), 1, 1, pattern(1, 2)).ok());
  EXPECT_FALSE(disk.write(SimTime::zero(), 2, 1, pattern(1, 3)).ok());
  EXPECT_TRUE(disk.write(SimTime::zero(), 3, 1, pattern(1, 4)).ok());
  EXPECT_FALSE(disk.dead());
  // Reads were never in the op mask.
  std::vector<std::byte> buf(kBlockSectorSize);
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  // Failed writes did not persist.
  EXPECT_EQ(read_back(inner, 1, 1), pattern(1, 0x00));
}

TEST(FaultyDiskTest, EioBurstRepeatsWithPeriod) {
  MemDisk inner(256);
  FaultPlan plan;
  plan.eio_start = 0;
  plan.eio_len = 1;
  plan.eio_period = 3;  // fail op 0, 3, 6, ... of the matching kind
  plan.eio_ops = fault_ops::kWrites;
  FaultyDisk disk(inner, plan);
  for (std::uint32_t w = 0; w < 9; ++w) {
    const bool ok = disk.write(SimTime::zero(), w, 1, pattern(1, 1)).ok();
    EXPECT_EQ(ok, w % 3 != 0) << "write " << w;
  }
}

// Erases are not a fault target, but FaultyDisk must still forward them
// to the device underneath rather than fall back to BlockDevice's no-op
// erase; once a cut kills the device, erases fail like every other
// command.
TEST(FaultyDiskTest, EraseForwardsUntilTheCut) {
  FlashConfig config;
  config.page_sectors = 2;
  config.pages_per_block = 4;
  config.blocks = 4;
  FlashDevice flash(config);
  FaultPlan plan;
  plan.cut_at_write = 1;
  FaultyDisk disk(flash, plan);
  const std::uint32_t block = flash.block_sectors();

  ASSERT_TRUE(disk.write(SimTime::zero(), 0, 2, pattern(2, 0x5a)).ok());
  EXPECT_EQ(read_back(flash, 0, 2), pattern(2, 0x5a));
  ASSERT_EQ(flash.erase_count(0), 0u);
  ASSERT_TRUE(disk.erase(SimTime::zero(), 0, block).ok());
  EXPECT_EQ(flash.erase_count(0), 1u);
  EXPECT_EQ(read_back(flash, 0, 2), pattern(2, 0xff));

  // Write 1 is the cut; the erase after it never reaches the block.
  EXPECT_FALSE(disk.write(SimTime::zero(), 0, 2, pattern(2, 0x01)).ok());
  ASSERT_TRUE(disk.dead());
  EXPECT_FALSE(disk.erase(SimTime::zero(), 0, block).ok());
  EXPECT_EQ(flash.erase_count(0), 1u);
}

}  // namespace
}  // namespace deepnote::storage
