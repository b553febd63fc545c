// CoW commit-log tests: format/commit/get round-trips, remount
// recovery, compaction under a tiny geometry, deletes, revision
// arbitration between the block pair, and input validation.
#include "storage/flash/commit_log.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "storage/flash/flash_device.h"
#include "numbered.h"

namespace deepnote::storage {
namespace {

using sim::SimTime;

// 1 KiB pages, 4-page (8-sector) blocks: a commit group is at most one
// block, so a handful of commits forces a compaction.
FlashConfig small_flash() {
  FlashConfig config;
  config.page_sectors = 2;
  config.pages_per_block = 4;
  config.blocks = 8;
  return config;
}

CommitLogConfig log_config(const FlashDevice& flash) {
  CommitLogConfig config;
  config.block_lba[0] = 0;
  config.block_lba[1] = flash.block_sectors();
  config.block_sectors = flash.block_sectors();
  config.page_sectors = flash.config().page_sectors;
  return config;
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

void expect_value(const CommitLog& log, std::uint8_t id,
                  const std::string& want) {
  const std::span<const std::byte> got = log.get(id);
  ASSERT_EQ(got.size(), want.size()) << "attr " << int{id};
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
      << "attr " << int{id};
}

TEST(CommitLogTest, FormatCommitGetRoundTrip) {
  FlashDevice flash(small_flash());
  CommitLog log(flash, log_config(flash));
  ASSERT_TRUE(log.format(SimTime::zero()).ok());
  EXPECT_TRUE(log.mounted());
  EXPECT_TRUE(log.get(7).empty());

  const std::vector<std::byte> a = bytes_of("alpha");
  const std::vector<std::byte> b = bytes_of("bravo-longer-value");
  const SetAttr ops[] = {SetAttr{7, a}, SetAttr{9, b}};
  ASSERT_TRUE(log.commit(SimTime::zero(), ops).ok());

  expect_value(log, 7, "alpha");
  expect_value(log, 9, "bravo-longer-value");
  EXPECT_TRUE(log.get(8).empty());
  EXPECT_EQ(log.stats().commits, 2u);  // format's sealing commit + ours
}

TEST(CommitLogTest, RemountRecoversCommittedState) {
  FlashDevice flash(small_flash());
  {
    CommitLog log(flash, log_config(flash));
    ASSERT_TRUE(log.format(SimTime::zero()).ok());
    for (int c = 0; c < 5; ++c) {
      const std::vector<std::byte> v = bytes_of(numbered("v", c));
      const SetAttr ops[] = {
          SetAttr{static_cast<std::uint8_t>(c), v},
          SetAttr{42, v},
      };
      ASSERT_TRUE(log.commit(SimTime::zero(), ops).ok());
    }
  }
  // A fresh log over the same device sees exactly what was committed.
  CommitLog reopened(flash, log_config(flash));
  ASSERT_TRUE(reopened.mount(SimTime::zero()).ok());
  for (int c = 0; c < 5; ++c) {
    expect_value(reopened, static_cast<std::uint8_t>(c), numbered("v", c));
  }
  expect_value(reopened, 42, "v4");  // last writer wins
}

TEST(CommitLogTest, MountWithoutFormatFails) {
  FlashDevice flash(small_flash());
  CommitLog log(flash, log_config(flash));
  EXPECT_FALSE(log.mount(SimTime::zero()).ok());
  EXPECT_FALSE(log.mounted());
}

TEST(CommitLogTest, CompactionFlipsThePairAndKeepsState) {
  FlashDevice flash(small_flash());
  CommitLog log(flash, log_config(flash));
  ASSERT_TRUE(log.format(SimTime::zero()).ok());
  const std::uint32_t rev_after_format = log.revision();
  // Far more commit bytes than one 4-page block holds: the log must
  // compact (erase the idle block, rewrite state, bump the revision),
  // and the state must survive every flip.
  for (int c = 0; c < 40; ++c) {
    const std::vector<std::byte> v = bytes_of(numbered("value-", c));
    const SetAttr ops[] = {
        SetAttr{static_cast<std::uint8_t>(c % 3), v}};
    ASSERT_TRUE(log.commit(SimTime::zero(), ops).ok()) << "commit " << c;
  }
  EXPECT_GT(log.stats().compactions, 0u);
  EXPECT_GT(log.revision(), rev_after_format);
  expect_value(log, 0, "value-39");
  expect_value(log, 1, "value-37");
  expect_value(log, 2, "value-38");

  // Remount arbitrates the pair by revision and lands on the same state.
  CommitLog reopened(flash, log_config(flash));
  ASSERT_TRUE(reopened.mount(SimTime::zero()).ok());
  EXPECT_EQ(reopened.revision(), log.revision());
  expect_value(reopened, 0, "value-39");
  expect_value(reopened, 1, "value-37");
  expect_value(reopened, 2, "value-38");
}

TEST(CommitLogTest, EmptyValueDeletesAnAttribute) {
  FlashDevice flash(small_flash());
  CommitLog log(flash, log_config(flash));
  ASSERT_TRUE(log.format(SimTime::zero()).ok());
  const std::vector<std::byte> v = bytes_of("ephemeral");
  const SetAttr set[] = {SetAttr{5, v}};
  ASSERT_TRUE(log.commit(SimTime::zero(), set).ok());
  expect_value(log, 5, "ephemeral");
  const SetAttr del[] = {SetAttr{5, {}}};
  ASSERT_TRUE(log.commit(SimTime::zero(), del).ok());
  EXPECT_TRUE(log.get(5).empty());
  // The delete is durable, not just in-memory.
  CommitLog reopened(flash, log_config(flash));
  ASSERT_TRUE(reopened.mount(SimTime::zero()).ok());
  EXPECT_TRUE(reopened.get(5).empty());
}

TEST(CommitLogTest, OversizedValueIsRejectedWithoutSideEffects) {
  FlashDevice flash(small_flash());
  CommitLog log(flash, log_config(flash));
  ASSERT_TRUE(log.format(SimTime::zero()).ok());
  const std::vector<std::byte> big(kMaxAttrLen + 1, std::byte{0xAB});
  const std::vector<std::byte> ok_v = bytes_of("ok");
  const SetAttr ops[] = {SetAttr{1, ok_v}, SetAttr{2, big}};
  EXPECT_FALSE(log.commit(SimTime::zero(), ops).ok());
  // Atomic: the valid op in the same group must not have applied.
  EXPECT_TRUE(log.get(1).empty());
  EXPECT_TRUE(log.get(2).empty());
}

TEST(CommitLogTest, CommitsLandOnlyInTheMetadataPair) {
  FlashDevice flash(small_flash());
  CommitLogConfig config = log_config(flash);
  // Put the pair in blocks 2 and 5; everything else must stay erased.
  config.block_lba[0] = 2 * flash.block_sectors();
  config.block_lba[1] = 5 * flash.block_sectors();
  CommitLog log(flash, config);
  ASSERT_TRUE(log.format(SimTime::zero()).ok());
  for (int c = 0; c < 20; ++c) {
    const std::vector<std::byte> v = bytes_of(std::to_string(c));
    const SetAttr ops[] = {SetAttr{1, v}};
    ASSERT_TRUE(log.commit(SimTime::zero(), ops).ok());
  }
  for (std::uint32_t block = 0; block < flash.config().blocks; ++block) {
    if (block == 2 || block == 5) continue;
    EXPECT_EQ(flash.erase_count(block), 0u) << "block " << block;
  }
}

}  // namespace
}  // namespace deepnote::storage
