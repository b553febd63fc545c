#include "storage/kvdb/sstable.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <optional>

#include "sim/rng.h"
#include "storage/kvdb/bloom.h"
#include "storage/mem_disk.h"
#include "numbered.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

// ---------------------------------------------------------------------------
// Bloom filter

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.add(numbered("key", i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.may_contain(numbered("key", i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.add(numbered("key", i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.may_contain(numbered("absent", i))) ++fp;
  }
  // 10 bits/key: ~1% expected; allow 3%.
  EXPECT_LT(fp, 300);
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter bloom(100);
  for (int i = 0; i < 100; ++i) bloom.add(numbered("x", i));
  const auto bytes = bloom.serialize();
  const BloomFilter restored =
      BloomFilter::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(restored.num_probes(), bloom.num_probes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.may_contain(numbered("x", i)));
  }
}

// ---------------------------------------------------------------------------
// SST build + read

struct SstFixture {
  MemDisk disk{(256ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  SimTime t = SimTime::zero();

  SstFixture() {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    t = mount.done;
  }
};

MemEntry put_entry(std::string value, std::uint64_t seq) {
  MemEntry e;
  e.type = EntryType::kPut;
  e.sequence = seq;
  e.value = std::move(value);
  return e;
}

TEST(SstTest, BuildWriteOpenGet) {
  SstFixture fx;
  SstBuilder builder(100);
  // Internal order: ascending user key.
  for (int i = 100; i < 200; ++i) {
    builder.add(numbered("key", i), put_entry(numbered("val", i), 10));
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/test.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/test.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;
  EXPECT_EQ(sst.entry_count(), 100u);
  EXPECT_EQ(sst.smallest(), "key100");
  EXPECT_EQ(sst.largest(), "key199");
  EXPECT_EQ(sst.max_sequence(), 10u);

  auto g = sst.get(fx.t, "key150");
  EXPECT_EQ(g.state, LookupState::kFound);
  EXPECT_EQ(g.value, "val150");
  g = sst.get(fx.t, "key999");
  EXPECT_EQ(g.state, LookupState::kMissing);
  g = sst.get(fx.t, "aaa");  // below smallest
  EXPECT_EQ(g.state, LookupState::kMissing);
}

TEST(SstTest, TombstonesComeBackAsDeleted) {
  SstFixture fx;
  SstBuilder builder(10);
  MemEntry dead;
  dead.type = EntryType::kDelete;
  dead.sequence = 5;
  builder.add("gone", dead);
  builder.add("here", put_entry("v", 4));
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/t.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/t.sst");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.reader->get(fx.t, "gone").state, LookupState::kDeleted);
  EXPECT_EQ(open.reader->get(fx.t, "here").state, LookupState::kFound);
}

TEST(SstTest, MultiBlockFilesUseIndex) {
  SstFixture fx;
  SstBuilder builder(5000);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    const std::string value(100, static_cast<char>('a' + i % 26));
    builder.add(key, put_entry(value, 1));
    model[key] = value;
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/big.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/big.sst");
  ASSERT_TRUE(open.ok());
  sim::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d",
                  static_cast<int>(rng.uniform_int(0, 4999)));
    auto g = open.reader->get(fx.t, key);
    ASSERT_EQ(g.state, LookupState::kFound) << key;
    EXPECT_EQ(g.value, model[key]);
  }
}

TEST(SstTest, ScanVisitsAllEntriesInOrder) {
  SstFixture fx;
  SstBuilder builder(1000);
  for (int i = 0; i < 1000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%05d", i);
    builder.add(key, put_entry(std::to_string(i), 2));
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/scan.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/scan.sst");
  ASSERT_TRUE(open.ok());
  int count = 0;
  std::string prev;
  auto r = open.reader->scan(fx.t, [&](const BlockEntry& e) {
    EXPECT_GE(std::string(e.user_key), prev);
    EXPECT_EQ(e.value, std::to_string(count));
    prev = std::string(e.user_key);
    ++count;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count, 1000);
}

// Several versions per user key (newest first), tombstones among them,
// and runs of versions that straddle data-block boundaries. Every key —
// the first and last key of each block included — must read back as its
// newest version, and keys between stored ones must miss.
TEST(SstTest, GetReturnsNewestVersionAcrossBlockBoundaries) {
  for (const std::size_t value_bytes : {8u, 100u, 700u}) {
    SCOPED_TRACE(value_bytes);
    SstFixture fx;
    sim::Rng rng(value_bytes);
    SstBuilder builder(4000);
    // Newest version per key: a value, or nullopt for a tombstone.
    std::map<std::string, std::optional<std::string>> model;
    // Mirrors SstBuilder's block cut (close once the block reaches
    // kTargetDataBlockBytes) to know each block's first and last key.
    std::vector<std::pair<std::string, std::string>> blocks;
    std::size_t block_bytes = 0;
    std::uint64_t seq = 1u << 20;
    for (int i = 0; i < 1500; ++i) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%06d", 2 * i);
      const int versions = 1 + static_cast<int>(rng.uniform_int(0, 3));
      for (int v = 0; v < versions; ++v) {
        // Each version's value names its key and its age.
        MemEntry e = put_entry(
            key + std::string(value_bytes, static_cast<char>('a' + v)),
            --seq);
        if (rng.uniform_int(0, 3) == 0) {
          e.type = EntryType::kDelete;
          e.value.clear();
        }
        if (v == 0) {
          model[key] = e.type == EntryType::kDelete
                           ? std::nullopt
                           : std::optional<std::string>(e.value);
        }
        builder.add(key, e);
        if (block_bytes == 0) blocks.emplace_back(key, key);
        blocks.back().second = key;
        block_bytes += 15 + std::strlen(key) + e.value.size();
        if (block_bytes >= kTargetDataBlockBytes) block_bytes = 0;
      }
    }
    ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/versions.sst").ok());
    auto open = SstReader::open(*fx.fs, fx.t, "/versions.sst");
    ASSERT_TRUE(open.ok());
    SstReader& sst = *open.reader;

    auto expect_newest = [&](const std::string& key) {
      SCOPED_TRACE(key);
      const SstGetResult g = sst.get(fx.t, key);
      ASSERT_EQ(g.err, Errno::kOk);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(g.state, LookupState::kMissing);
      } else if (!it->second) {
        EXPECT_EQ(g.state, LookupState::kDeleted);
      } else {
        EXPECT_EQ(g.state, LookupState::kFound);
        EXPECT_EQ(g.value, *it->second);
      }
    };
    int straddles = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      expect_newest(blocks[b].first);
      expect_newest(blocks[b].second);
      if (b > 0 && blocks[b - 1].second == blocks[b].first) ++straddles;
    }
    EXPECT_GT(blocks.size(), 1u);
    EXPECT_GT(straddles, 0);
    for (const auto& [key, newest] : model) {
      expect_newest(key);
      expect_newest(key + "+");  // sorts between two stored keys
    }
  }
}

// The block index search at its edges, on a table of many blocks: each
// block's first and last key, a key between two blocks, and keys outside
// [smallest(), largest()].
TEST(SstTest, GetAtBlockEdgesAndOutsideTheKeyRange) {
  SstFixture fx;
  SstBuilder builder(2000);
  // Mirrors SstBuilder's block cut, as above.
  std::vector<std::pair<std::string, std::string>> blocks;
  std::size_t block_bytes = 0;
  for (int i = 0; i < 2000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", 2 * i);
    builder.add(key, put_entry(numbered("val", i), 3));
    if (block_bytes == 0) blocks.emplace_back(key, key);
    blocks.back().second = key;
    block_bytes += 15 + std::strlen(key) + numbered("val", i).size();
    if (block_bytes >= kTargetDataBlockBytes) block_bytes = 0;
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/edges.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/edges.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;
  ASSERT_GT(blocks.size(), 10u);
  EXPECT_EQ(sst.smallest(), blocks.front().first);
  EXPECT_EQ(sst.largest(), blocks.back().second);

  auto value_of = [](const std::string& key) {
    return numbered("val", std::stoi(key.substr(3)) / 2);
  };
  auto expect_state = [&](const std::string& key, LookupState state) {
    SCOPED_TRACE(key);
    const SstGetResult g = sst.get(fx.t, key);
    ASSERT_EQ(g.err, Errno::kOk);
    EXPECT_EQ(g.state, state);
    if (state == LookupState::kFound) {
      EXPECT_EQ(g.value, value_of(key));
    } else {
      EXPECT_EQ(g.value, "");
    }
  };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    expect_state(blocks[b].first, LookupState::kFound);
    expect_state(blocks[b].second, LookupState::kFound);
    if (b + 1 < blocks.size()) {
      // Sorts after block b's last key and before block b+1's first.
      const std::string between = blocks[b].second + "+";
      ASSERT_LT(between, blocks[b + 1].first);
      expect_state(between, LookupState::kMissing);
    }
  }
  for (const std::string below : {"", "a", "key", "key00000"}) {
    ASSERT_LT(below, sst.smallest());
    expect_state(below, LookupState::kMissing);
  }
  for (const std::string& above :
       {sst.largest() + std::string(1, '\0'), std::string("key999999"),
        std::string("z")}) {
    ASSERT_GT(above, sst.largest());
    expect_state(above, LookupState::kMissing);
  }
}

// A data block whose first entry claims a key longer than the block.
// get() must report the damage as scan() does, not answer "missing" and
// send the caller on to older tables.
TEST(SstTest, GetReportsMalformedBlockLikeScan) {
  SstFixture fx;
  SstBuilder builder(100);
  for (int i = 0; i < 100; ++i) {
    builder.add(numbered("key", 100 + i), put_entry(numbered("val", i), 7));
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/bad.sst").ok());
  // The first entry starts the file; its u16 key length comes first.
  auto lr = fx.fs->lookup(fx.t, "/bad.sst");
  ASSERT_TRUE(lr.ok());
  const std::vector<std::byte> huge_klen{std::byte{0xff}, std::byte{0xff}};
  auto wr = fx.fs->write(lr.done, lr.inode, 0, huge_klen);
  ASSERT_TRUE(wr.ok());
  fx.t = wr.done;

  auto open = SstReader::open(*fx.fs, fx.t, "/bad.sst");
  ASSERT_TRUE(open.ok());  // footer, index and filter are intact
  const SstGetResult g = open.reader->get(open.done, "key100");
  EXPECT_EQ(g.err, Errno::kEINVAL);
  EXPECT_EQ(g.state, LookupState::kMissing);
  const FsResult sc = open.reader->scan(open.done, [](const BlockEntry&) {});
  EXPECT_EQ(sc.err, Errno::kEINVAL);
}

TEST(SstTest, OpenRejectsGarbage) {
  SstFixture fx;
  std::uint32_t ino = 0;
  fx.t = fx.fs->create(fx.t, "/junk.sst", &ino).done;
  std::vector<std::byte> junk(200, std::byte{0x5a});
  fx.t = fx.fs->write(fx.t, ino, 0, junk).done;
  auto open = SstReader::open(*fx.fs, fx.t, "/junk.sst");
  EXPECT_FALSE(open.ok());
  EXPECT_EQ(open.reader, nullptr);
}

TEST(SstTest, OpenMissingFileFails) {
  SstFixture fx;
  auto open = SstReader::open(*fx.fs, fx.t, "/nope.sst");
  EXPECT_EQ(open.err, Errno::kENOENT);
}

}  // namespace
}  // namespace deepnote::storage::kvdb
