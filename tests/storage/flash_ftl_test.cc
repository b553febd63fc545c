// FTL tests: read-your-writes through out-of-place remapping, sub-page
// read-modify-write, garbage collection under pressure, TRIM, the
// wear-leveling distribution property — hot traffic must spread erases
// across the whole device, keeping the max-min wear spread bounded —
// the open-block property: GC relocation never leaks a block — and
// multi-page commands at any offset against a flat shadow.
#include "storage/flash/ftl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"

namespace deepnote::storage {
namespace {

using sim::SimTime;

// 1 KiB pages, 4-page blocks, 16 blocks; 4 reserved: 48 logical pages.
FlashConfig small_config() {
  FlashConfig config;
  config.page_sectors = 2;
  config.pages_per_block = 4;
  config.blocks = 16;
  return config;
}

FtlConfig small_ftl() {
  FtlConfig config;
  config.reserved_blocks = 4;
  config.gc_free_threshold = 2;
  return config;
}

std::vector<std::byte> pattern(std::size_t sectors, std::uint8_t seed) {
  std::vector<std::byte> out(sectors * kBlockSectorSize);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((seed + i * 13) & 0xFF);
  }
  return out;
}

TEST(FtlTest, LogicalSpaceExcludesOverProvisioning) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  // (16 - 4 reserved) blocks x 4 pages x 2 sectors.
  EXPECT_EQ(ftl.total_sectors(), 96u);
  EXPECT_LT(ftl.total_sectors(), flash.total_sectors());
}

TEST(FtlTest, OverProvisioningMustFitTheDevice) {
  FlashDevice flash(small_config());
  FtlConfig config;
  config.reserved_blocks = 15;
  EXPECT_THROW(Ftl(flash, config), std::invalid_argument);
}

TEST(FtlTest, ReadYourWritesAcrossRemapping) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> a = pattern(2, 1);
  const std::vector<std::byte> b = pattern(2, 2);
  std::vector<std::byte> out(a.size());

  ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 2, a).ok());
  ASSERT_TRUE(ftl.read(SimTime::zero(), 0, 2, out).ok());
  EXPECT_EQ(out, a);
  // Overwrite in place from the host's view; out-of-place underneath
  // (the raw device would refuse a re-program).
  ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 2, b).ok());
  ASSERT_TRUE(ftl.read(SimTime::zero(), 0, 2, out).ok());
  EXPECT_EQ(out, b);
  EXPECT_EQ(flash.stats().discipline_errors, 0u);
}

TEST(FtlTest, UnwrittenPagesReadErased) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  std::vector<std::byte> out(2 * kBlockSectorSize);
  ASSERT_TRUE(ftl.read(SimTime::zero(), 10, 2, out).ok());
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0xFF});
}

TEST(FtlTest, SubPageWritePreservesTheRestOfThePage) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> full = pattern(2, 3);
  const std::vector<std::byte> sector = pattern(1, 4);
  ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 2, full).ok());
  // One sector inside the page: read-modify-write underneath.
  ASSERT_TRUE(ftl.write(SimTime::zero(), 1, 1, sector).ok());
  std::vector<std::byte> out(full.size());
  ASSERT_TRUE(ftl.read(SimTime::zero(), 0, 2, out).ok());
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + kBlockSectorSize,
                         full.begin()));
  EXPECT_TRUE(std::equal(out.begin() + kBlockSectorSize, out.end(),
                         sector.begin()));
}

TEST(FtlTest, GarbageCollectionKeepsWritesFlowing) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> buf = pattern(2, 5);
  // Rewrite a single logical page far more times than the device has
  // pages: only GC can reclaim the stale copies.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 2, buf).ok()) << "write " << i;
  }
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GT(flash.stats().block_erases, 0u);
  // The cushion holds: GC keeps at least one free block in reserve.
  EXPECT_GE(ftl.free_blocks(), 1u);
}

// Regression: GC victims that still hold LIVE pages. Interleaving
// cold writes (never rewritten) with hot churn leaves every closed
// block a mix of valid and stale pages, so GC must relocate data —
// while a host write is mid-flight through place_page. This pins down
// two historical bugs: (1) relocation sharing the host staging buffer,
// so the host's logical page silently mapped to the last relocated
// page's bytes; (2) relocating with an explicit invalidate AND
// place_page's old-mapping invalidate, underflowing the victim's
// valid-page count so the block was never picked as a victim again and
// the free pool drained until writes failed.
TEST(FtlTest, GcRelocatesLivePagesWithoutCorruptingHostWrites) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  std::vector<std::byte> out(2 * kBlockSectorSize);
  // Lay down 24 cold pages (logical 24..47) interleaved with hot
  // traffic so cold pages scatter across physical blocks instead of
  // packing into fully-valid blocks GC would never pick.
  for (std::uint32_t p = 0; p < 24; ++p) {
    const std::uint8_t seed = static_cast<std::uint8_t>(100 + p);
    ASSERT_TRUE(
        ftl.write(SimTime::zero(), (24 + p) * 2, 2, pattern(2, seed)).ok());
    ASSERT_TRUE(
        ftl.write(SimTime::zero(), (p % 8) * 2, 2, pattern(2, p)).ok());
  }
  // Hammer the hot pages with a changing pattern, verifying read-back
  // after every write: a relocation that leaks into the host buffer
  // shows up on the exact write that rolled the open block.
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t lba = static_cast<std::uint64_t>(i % 8) * 2;
    const std::vector<std::byte> buf =
        pattern(2, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(ftl.write(SimTime::zero(), lba, 2, buf).ok())
        << "write " << i << " failed: GC accounting degraded";
    ASSERT_TRUE(ftl.read(SimTime::zero(), lba, 2, out).ok());
    ASSERT_EQ(out, buf) << "host data corrupted at write " << i;
  }
  ASSERT_GT(ftl.stats().relocated_pages, 0u)
      << "workload never exercised live-page relocation";
  EXPECT_GE(ftl.free_blocks(), 1u);
  // Every cold page survived its relocations intact.
  for (std::uint32_t p = 0; p < 24; ++p) {
    const std::uint8_t seed = static_cast<std::uint8_t>(100 + p);
    ASSERT_TRUE(ftl.read(SimTime::zero(), (24 + p) * 2, 2, out).ok());
    EXPECT_EQ(out, pattern(2, seed)) << "cold page " << 24 + p;
  }
}

TEST(FtlTest, TrimUnmapsFullyCoveredPages) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> buf = pattern(4, 6);
  ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 4, buf).ok());
  // TRIM both pages: a hint, no device command, pages become stale.
  const std::uint64_t erases_before = flash.stats().block_erases;
  ASSERT_TRUE(ftl.erase(SimTime::zero(), 0, 4).ok());
  EXPECT_EQ(ftl.stats().trimmed_pages, 2u);
  EXPECT_EQ(flash.stats().block_erases, erases_before);
  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(ftl.read(SimTime::zero(), 0, 4, out).ok());
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0xFF});
}

TEST(FtlTest, TrimKeepsPartiallyCoveredPages) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> buf = pattern(2, 7);
  ASSERT_TRUE(ftl.write(SimTime::zero(), 0, 2, buf).ok());
  // One sector of a two-sector page: too little to discard the page.
  ASSERT_TRUE(ftl.erase(SimTime::zero(), 0, 1).ok());
  EXPECT_EQ(ftl.stats().trimmed_pages, 0u);
  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(ftl.read(SimTime::zero(), 0, 2, out).ok());
  EXPECT_EQ(out, buf);
}

// The wear-leveling distribution property the allocator exists for:
// hammering a handful of hot logical pages must NOT wear out a handful
// of physical blocks. The wear-aware allocator (lowest-erase-count free
// block) rotates hot traffic across the whole device, so after
// thousands of rewrites every block has been erased a similar number of
// times: the max-min spread stays a small constant while the mean
// climbs well past it.
TEST(FtlTest, WearLevelingBoundsTheEraseSpread) {
  FlashDevice flash(small_config());
  Ftl ftl(flash, small_ftl());
  const std::vector<std::byte> buf = pattern(2, 8);
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t lba = static_cast<std::uint64_t>(round % 4) * 2;
    ASSERT_TRUE(ftl.write(SimTime::zero(), lba, 2, buf).ok());
  }
  const std::uint32_t min = flash.min_erase_count();
  const std::uint32_t max = flash.max_erase_count();
  EXPECT_GE(flash.mean_erase_count(), 10.0);
  EXPECT_GT(min, 0u) << "some block never recycled: leveling failed";
  EXPECT_LE(max - min, 4u) << "wear concentrated: min=" << min
                           << " max=" << max;
}

// Open-block property: however GC relocation interleaves with host
// writes, at most one block is ever open. A block GC relocation opened
// and the host write then abandoned stays kOpen, which is never a GC
// victim; blocks leak that way until every closed block is nearly fully
// valid and GC spins without freeing one. Uniform random single-page
// overwrites at three over-provisioning levels leave live pages in
// every victim, so relocation opens blocks from the second GC run on.
// Every stream must also finish in fewer GC runs than host writes.
TEST(FtlTest, RandomOverwritesNeverLeakAnOpenBlock) {
  constexpr int kWrites = 100000;
  FlashConfig flash_config;
  flash_config.blocks = 64;
  flash_config.retain_data = false;
  for (const std::uint32_t reserved : {4u, 8u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "reserved " << reserved << ", seed " << seed);
      FlashDevice flash(flash_config);
      FtlConfig config;
      config.reserved_blocks = reserved;
      Ftl ftl(flash, config);
      const std::uint32_t psec = flash_config.page_sectors;
      const std::int64_t pages =
          static_cast<std::int64_t>(ftl.total_sectors() / psec);
      const std::vector<std::byte> page(psec * kBlockSectorSize);
      sim::Rng rng(seed);
      SimTime now = SimTime::zero();
      for (int i = 0; i < kWrites; ++i) {
        const auto lp =
            static_cast<std::uint64_t>(rng.uniform_int(0, pages - 1));
        const BlockIo io = ftl.write(now, lp * psec, psec, page);
        ASSERT_TRUE(io.ok()) << "write " << i;
        now = io.complete;
        ASSERT_LE(ftl.open_blocks(), 1u)
            << "write " << i << ", GC run " << ftl.stats().gc_runs;
      }
      EXPECT_GT(ftl.stats().relocated_pages, 0u)
          << "workload never exercised live-page relocation";
      EXPECT_LT(ftl.stats().gc_runs, static_cast<std::uint64_t>(kWrites));
      EXPECT_EQ(flash.stats().discipline_errors, 0u);
    }
  }
}

// Multi-page commands against a flat shadow of the logical space. Each
// write covers one to three pages' worth of sectors at any sector
// offset, so one command can hold a sub-page head, whole pages and a
// sub-page tail; reads of the same shapes are mixed in. Random writes
// over the whole logical space leave live pages in every GC victim, so
// relocation runs in the middle of host commands. Every read must
// equal the shadow, and the NAND model must see no discipline error.
TEST(FtlTest, MatchesAFlatShadowUnderGc) {
  constexpr int kOps = 4000;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    FlashDevice flash(small_config());
    Ftl ftl(flash, small_ftl());
    const std::uint32_t psec = small_config().page_sectors;
    const std::uint64_t sectors = ftl.total_sectors();
    std::vector<std::byte> shadow(sectors * kBlockSectorSize,
                                  std::byte{0xFF});
    std::vector<std::byte> buf(3 * psec * kBlockSectorSize);
    sim::Rng rng(seed);
    SimTime now = SimTime::zero();
    for (int i = 0; i < kOps; ++i) {
      const auto count =
          static_cast<std::uint32_t>(rng.uniform_int(psec, 3 * psec));
      const auto lba = static_cast<std::uint64_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sectors - count)));
      const std::span<std::byte> io(buf.data(), count * kBlockSectorSize);
      const auto at = shadow.begin() +
                      static_cast<std::ptrdiff_t>(lba * kBlockSectorSize);
      if (rng.bernoulli(0.3)) {
        const BlockIo r = ftl.read(now, lba, count, io);
        ASSERT_TRUE(r.ok()) << "read " << i;
        now = r.complete;
        ASSERT_TRUE(std::equal(io.begin(), io.end(), at))
            << "op " << i << ": read " << count << " sectors at " << lba;
        continue;
      }
      for (std::byte& b : io) b = static_cast<std::byte>(rng.next_u64());
      const BlockIo w = ftl.write(now, lba, count, io);
      ASSERT_TRUE(w.ok()) << "write " << i;
      now = w.complete;
      std::copy(io.begin(), io.end(), at);
    }
    EXPECT_GT(ftl.stats().relocated_pages, 0u)
        << "workload never exercised live-page relocation";
    std::vector<std::byte> all(shadow.size());
    ASSERT_TRUE(ftl.read(now, 0, static_cast<std::uint32_t>(sectors), all)
                    .ok());
    EXPECT_EQ(all, shadow);
    EXPECT_EQ(flash.stats().discipline_errors, 0u);
  }
}

}  // namespace
}  // namespace deepnote::storage
