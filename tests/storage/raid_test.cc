#include "storage/raid.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/mem_disk.h"

namespace deepnote::storage {
namespace {

using sim::Duration;
using sim::SimTime;

std::vector<std::byte> pattern(std::uint32_t sectors, std::uint8_t fill) {
  return std::vector<std::byte>(
      static_cast<std::size_t>(sectors) * kBlockSectorSize,
      static_cast<std::byte>(fill));
}

TEST(Raid1Test, MirrorsWritesToAllMembers) {
  MemDisk a(1024), b(1024);
  Raid1Device raid({&a, &b});
  auto data = pattern(8, 0x42);
  ASSERT_TRUE(raid.write(SimTime::zero(), 0, 8, data).ok());
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(a.read(SimTime::zero(), 0, 8, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(b.read(SimTime::zero(), 0, 8, out).ok());
  EXPECT_EQ(out, data);
}

TEST(Raid1Test, SurvivesSingleMemberFailure) {
  MemDisk a(1024), b(1024);
  Raid1Device raid({&a, &b});
  auto data = pattern(8, 0x17);
  ASSERT_TRUE(raid.write(SimTime::zero(), 0, 8, data).ok());
  a.set_failing(true);
  // Reads fail over to the healthy mirror.
  std::vector<std::byte> out(data.size());
  const BlockIo r = raid.read(SimTime::zero(), 0, 8, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(raid.stats().read_failovers, 1u);
  // Writes degrade but succeed.
  ASSERT_TRUE(raid.write(SimTime::zero(), 8, 8, data).ok());
  EXPECT_EQ(raid.stats().degraded_writes, 1u);
}

TEST(Raid1Test, DiesWhenAllMembersFail) {
  MemDisk a(1024), b(1024);
  Raid1Device raid({&a, &b});
  a.set_failing(true);
  b.set_failing(true);
  auto data = pattern(8, 0x01);
  EXPECT_FALSE(raid.write(SimTime::zero(), 0, 8, data).ok());
  std::vector<std::byte> out(data.size());
  EXPECT_FALSE(raid.read(SimTime::zero(), 0, 8, out).ok());
  EXPECT_FALSE(raid.flush(SimTime::zero()).ok());
  EXPECT_GE(raid.stats().failed_ios, 3u);
}

TEST(Raid1Test, WriteLatencyIsSlowestMember) {
  MemDisk fast(1024, Duration::from_micros(10));
  MemDisk slow(1024, Duration::from_micros(500));
  Raid1Device raid({&fast, &slow});
  auto data = pattern(1, 0x02);
  const BlockIo io = raid.write(SimTime::zero(), 0, 1, data);
  EXPECT_EQ((io.complete - SimTime::zero()).micros(), 500.0);
}

TEST(Raid1Test, ExposesSmallestMember) {
  MemDisk a(1024), b(512);
  Raid1Device raid({&a, &b});
  EXPECT_EQ(raid.total_sectors(), 512u);
}

TEST(Raid1Test, EjectsMemberAfterConsecutiveErrors) {
  MemDisk a(1024), b(1024);
  Raid1Device raid({&a, &b}, /*eject_after_errors=*/2);
  a.set_failing(true);
  auto data = pattern(8, 0x07);
  // Two failing writes eject member 0.
  ASSERT_TRUE(raid.write(SimTime::zero(), 0, 8, data).ok());
  ASSERT_TRUE(raid.write(SimTime::zero(), 8, 8, data).ok());
  EXPECT_TRUE(raid.member_failed(0));
  EXPECT_EQ(raid.active_members(), 1u);
  // Further writes no longer touch the dead member.
  const std::uint64_t ops_before = a.op_count();
  ASSERT_TRUE(raid.write(SimTime::zero(), 16, 8, data).ok());
  EXPECT_EQ(a.op_count(), ops_before);
  // Readmission brings it back.
  a.set_failing(false);
  raid.readmit(0);
  EXPECT_EQ(raid.active_members(), 2u);
  ASSERT_TRUE(raid.write(SimTime::zero(), 24, 8, data).ok());
  EXPECT_GT(a.op_count(), ops_before);
}

TEST(Raid1Test, ContinuesDegradedServiceAfterEjection) {
  MemDisk a(1024), b(1024);
  Raid1Device raid({&a, &b}, /*eject_after_errors=*/2);
  auto data = pattern(8, 0x3c);
  ASSERT_TRUE(raid.write(SimTime::zero(), 0, 8, data).ok());

  // Member 0 dies; two failed reads eject it.
  a.set_failing(true);
  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(raid.read(SimTime::zero(), 0, 8, out).ok());
  ASSERT_TRUE(raid.read(SimTime::zero(), 0, 8, out).ok());
  ASSERT_TRUE(raid.member_failed(0));
  ASSERT_EQ(raid.active_members(), 1u);

  // Degraded service: reads skip the ejected member entirely (no
  // failover latency, no commands sent to the dead drive) and writes
  // keep succeeding on the survivor.
  const std::uint64_t dead_ops = a.op_count();
  const std::uint64_t failovers = raid.stats().read_failovers;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(raid.read(SimTime::zero(), 0, 8, out).ok());
    EXPECT_EQ(out, data);
  }
  auto data2 = pattern(8, 0x77);
  ASSERT_TRUE(raid.write(SimTime::zero(), 8, 8, data2).ok());
  ASSERT_TRUE(raid.read(SimTime::zero(), 8, 8, out).ok());
  EXPECT_EQ(out, data2);
  EXPECT_EQ(a.op_count(), dead_ops);
  EXPECT_EQ(raid.stats().read_failovers, failovers);
  ASSERT_TRUE(raid.flush(SimTime::zero()).ok());
}

TEST(RaidTest, InvalidConfigsThrow) {
  EXPECT_THROW(Raid1Device raid({}), std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::storage
