// Range-scan tests for the LSM store: merged iteration across memtable,
// immutable memtable, L0 and L1, with newest-wins and hidden tombstones.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "storage/kvdb/db.h"
#include "storage/mem_disk.h"
#include "numbered.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

struct ScanFixture {
  MemDisk disk{(512ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  std::unique_ptr<Db> db;
  SimTime t = SimTime::zero();

  explicit ScanFixture(std::uint64_t buffer = 256 << 10) {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    DbConfig cfg;
    cfg.write_buffer_bytes = buffer;
    auto open = Db::open(*fs, mount.done, cfg);
    EXPECT_TRUE(open.ok());
    db = std::move(open.db);
    t = open.done;
  }

  void put(const std::string& k, const std::string& v) {
    auto r = db->put(t, k, v);
    if (r.err == Errno::kEAGAIN) {
      t = db->do_flush(t).done;
      r = db->put(t, k, v);
    }
    ASSERT_TRUE(r.ok());
    t = r.done;
    if (db->flush_pending()) t = db->do_flush(t).done;
  }

  std::vector<std::pair<std::string, std::string>> scan(
      const std::string& from, const std::string& to) {
    std::vector<std::pair<std::string, std::string>> out;
    auto r = db->scan(t, from, to, [&](std::string_view k,
                                       std::string_view v) {
      out.emplace_back(std::string(k), std::string(v));
      return true;
    });
    EXPECT_TRUE(r.ok());
    t = r.done;
    return out;
  }
};

TEST(DbScanTest, EmptyDbScansNothing) {
  ScanFixture fx;
  EXPECT_TRUE(fx.scan("", "").empty());
}

TEST(DbScanTest, MemtableOnlyOrdered) {
  ScanFixture fx;
  fx.put("cherry", "3");
  fx.put("apple", "1");
  fx.put("banana", "2");
  const auto got = fx.scan("", "");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, "apple");
  EXPECT_EQ(got[1].first, "banana");
  EXPECT_EQ(got[2].first, "cherry");
}

TEST(DbScanTest, RangeBoundsAreHalfOpen) {
  ScanFixture fx;
  for (char c = 'a'; c <= 'f'; ++c) {
    fx.put(std::string(1, c), "v");
  }
  const auto got = fx.scan("b", "e");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got.front().first, "b");
  EXPECT_EQ(got.back().first, "d");
}

TEST(DbScanTest, NewestVersionWinsAcrossLevels) {
  ScanFixture fx;
  // Old version flushed to an SST...
  for (int i = 0; i < 3000; ++i) {
    fx.put(numbered("key", i), "old");
  }
  ASSERT_TRUE(fx.db->flush(fx.t).ok());
  // ...new version in the memtable.
  fx.put("key42", "new");
  const auto got = fx.scan("key42", "key42\xff");
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].second, "new");
  // Only one version visible.
  int key42_count = 0;
  for (const auto& [k, v] : got) {
    if (k == "key42") ++key42_count;
  }
  EXPECT_EQ(key42_count, 1);
}

TEST(DbScanTest, TombstonesHideEntriesAcrossLevels) {
  ScanFixture fx;
  for (int i = 0; i < 3000; ++i) {
    fx.put(numbered("key", i), "v");
  }
  ASSERT_TRUE(fx.db->flush(fx.t).ok());
  auto dr = fx.db->del(fx.t, "key100");
  ASSERT_TRUE(dr.ok());
  fx.t = dr.done;
  const auto got = fx.scan("key100", "key101");
  for (const auto& [k, v] : got) {
    EXPECT_NE(k, "key100");
  }
}

TEST(DbScanTest, EarlyStopVisitor) {
  ScanFixture fx;
  for (int i = 0; i < 100; ++i) {
    fx.put(numbered("k", 1000 + i), "v");
  }
  int seen = 0;
  auto r = fx.db->scan(fx.t, "", "", [&](std::string_view, std::string_view) {
    return ++seen < 5;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(r.entries, 5u);
}

TEST(DbScanTest, MatchesModelAfterMixedWorkload) {
  ScanFixture fx;
  std::map<std::string, std::string> model;
  sim::Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d",
                  static_cast<int>(rng.uniform_int(0, 800)));
    if (rng.bernoulli(0.75)) {
      const std::string value = numbered("v", op);
      fx.put(key, value);
      model[key] = value;
    } else {
      auto r = fx.db->del(fx.t, key);
      if (r.err == Errno::kEAGAIN) {
        fx.t = fx.db->do_flush(fx.t).done;
        r = fx.db->del(fx.t, key);
      }
      ASSERT_TRUE(r.ok());
      fx.t = r.done;
      model.erase(key);
      if (fx.db->flush_pending()) fx.t = fx.db->do_flush(fx.t).done;
    }
  }
  const auto got = fx.scan("", "");
  ASSERT_EQ(got.size(), model.size());
  auto it = model.begin();
  for (std::size_t i = 0; i < got.size(); ++i, ++it) {
    EXPECT_EQ(got[i].first, it->first);
    EXPECT_EQ(got[i].second, it->second);
  }
}

TEST(DbScanTest, ScanSurvivesCompaction) {
  ScanFixture fx;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 2500; ++i) {
      fx.put(numbered("key", i), numbered("round", round));
    }
  }
  ASSERT_TRUE(fx.db->flush(fx.t).ok());
  EXPECT_GT(fx.db->stats().compactions, 0u);
  const auto got = fx.scan("key0", "key1");  // just "key0"
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, "round5");
}

TEST(DbScanTest, StallAppliesToScans) {
  DbConfig cfg;
  cfg.write_buffer_bytes = 64 << 10;
  cfg.stall_grace = sim::Duration::from_seconds(1.0);
  ScanFixture fx(64 << 10);
  fx.db = nullptr;  // rebuild with grace config
  auto open = Db::open(*fx.fs, fx.t, cfg);
  ASSERT_TRUE(open.ok());
  fx.db = std::move(open.db);
  fx.t = open.done;
  const std::string big(4 << 10, 'z');
  for (int i = 0; i < 100 && !fx.db->flush_pending(); ++i) {
    auto r = fx.db->put(fx.t, numbered("k", i), big);
    ASSERT_TRUE(r.ok());
    fx.t = r.done;
  }
  ASSERT_TRUE(fx.db->flush_pending());
  auto r = fx.db->scan(fx.t + sim::Duration::from_seconds(2), "", "",
                       [](std::string_view, std::string_view) {
                         return true;
                       });
  EXPECT_EQ(r.err, Errno::kEAGAIN);
}

}  // namespace
}  // namespace deepnote::storage::kvdb
