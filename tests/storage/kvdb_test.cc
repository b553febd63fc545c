#include "storage/kvdb/db.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "storage/kvdb/memtable.h"
#include "storage/kvdb/skiplist.h"
#include "storage/mem_disk.h"
#include "numbered.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

// ---------------------------------------------------------------------------
// Skiplist

TEST(SkipListTest, InsertAndFind) {
  SkipList<int> list;
  list.insert("banana", 2);
  list.insert("apple", 1);
  list.insert("cherry", 3);
  std::string_view key;
  const int* v = list.find_first_at_least("apple", &key);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 1);
  v = list.find_first_at_least("b", &key);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(key, "banana");
  EXPECT_EQ(list.find_first_at_least("zebra"), nullptr);
}

TEST(SkipListTest, OrderedTraversal) {
  SkipList<int> list;
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    list.insert(std::to_string(rng.next_u64() % 100000), i);
  }
  std::string prev;
  bool first = true;
  list.for_each([&](std::string_view k, const int&) {
    if (!first) {
      EXPECT_GE(k, prev);
    }
    prev = std::string(k);
    first = false;
  });
  EXPECT_EQ(list.size(), 500u);
}

// ---------------------------------------------------------------------------
// Memtable

TEST(MemTableTest, InternalKeyOrdersNewestFirst) {
  const std::string a = MemTable::internal_key("key", 5);
  const std::string b = MemTable::internal_key("key", 9);
  EXPECT_LT(b, a);  // higher sequence sorts first
  EXPECT_EQ(MemTable::user_key_of(a), "key");
  EXPECT_EQ(MemTable::sequence_of(a), 5u);
  EXPECT_EQ(MemTable::sequence_of(b), 9u);
}

TEST(MemTableTest, GetReturnsNewestVersion) {
  MemTable mt;
  mt.put("k", "old", 1);
  mt.put("k", "new", 2);
  std::string v;
  EXPECT_EQ(mt.get("k", &v), LookupState::kFound);
  EXPECT_EQ(v, "new");
}

TEST(MemTableTest, TombstoneShadowsOlderPut) {
  MemTable mt;
  mt.put("k", "value", 1);
  mt.del("k", 2);
  std::string v;
  EXPECT_EQ(mt.get("k", &v), LookupState::kDeleted);
}

TEST(MemTableTest, MissingKey) {
  MemTable mt;
  mt.put("aaa", "1", 1);
  mt.put("ccc", "3", 2);
  std::string v;
  EXPECT_EQ(mt.get("bbb", &v), LookupState::kMissing);
}

TEST(MemTableTest, BytesGrow) {
  MemTable mt;
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  mt.put("key", std::string(1000, 'v'), 1);
  EXPECT_GT(mt.approximate_bytes(), 1000u);
}

// ---------------------------------------------------------------------------
// Db on extfs on MemDisk

struct DbFixture {
  MemDisk disk{(512ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  std::unique_ptr<Db> db;
  SimTime t = SimTime::zero();

  explicit DbFixture(DbConfig cfg = small_config()) {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    auto open = Db::open(*fs, mount.done, cfg);
    EXPECT_TRUE(open.ok());
    db = std::move(open.db);
    t = open.done;
  }

  static DbConfig small_config() {
    DbConfig cfg;
    cfg.write_buffer_bytes = 256 << 10;  // flush often in tests
    cfg.l0_compaction_trigger = 4;
    return cfg;
  }

  void pump() {  // run pending background work inline
    while (db->flush_pending()) {
      auto r = db->do_flush(t);
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
  }

  void put(const std::string& k, const std::string& v) {
    auto r = db->put(t, k, v);
    if (r.err == Errno::kEAGAIN) {
      pump();
      r = db->put(t, k, v);
    }
    ASSERT_TRUE(r.ok());
    t = r.done;
    if (db->flush_pending()) pump();
  }

  std::string get(const std::string& k, bool* found = nullptr) {
    auto r = db->get(t, k);
    EXPECT_TRUE(r.ok());
    t = r.done;
    if (found) *found = r.found;
    return r.value;
  }
};

TEST(DbTest, PutGetRoundTrip) {
  DbFixture fx;
  fx.put("hello", "world");
  bool found = false;
  EXPECT_EQ(fx.get("hello", &found), "world");
  EXPECT_TRUE(found);
  fx.get("missing", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, OverwriteReturnsLatest) {
  DbFixture fx;
  fx.put("k", "v1");
  fx.put("k", "v2");
  EXPECT_EQ(fx.get("k"), "v2");
}

TEST(DbTest, DeleteHidesKey) {
  DbFixture fx;
  fx.put("k", "v");
  auto r = fx.db->del(fx.t, "k");
  ASSERT_TRUE(r.ok());
  fx.t = r.done;
  bool found = true;
  fx.get("k", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, GetFromFlushedSst) {
  DbFixture fx;
  for (int i = 0; i < 2000; ++i) {
    fx.put(numbered("key", i), numbered("value", i));
  }
  auto fr = fx.db->flush(fx.t);
  ASSERT_TRUE(fr.ok());
  fx.t = fr.done;
  EXPECT_GT(fx.db->l0_count() + fx.db->l1_count(), 0u);
  // Values must come back from SSTs (memtable was flushed).
  bool found = false;
  EXPECT_EQ(fx.get("key0", &found), "value0");
  EXPECT_TRUE(found);
  EXPECT_EQ(fx.get("key1999", &found), "value1999");
  EXPECT_TRUE(found);
}

// A malformed data block in the newest table must fail the get. Reading
// it as "missing" would fall through to the older table and serve the
// value the newer one shadows.
TEST(DbTest, MalformedNewerTableFailsGetInsteadOfServingOlderValue) {
  DbFixture fx;
  for (const char* value : {"old", "new"}) {
    fx.put("k", value);
    auto fr = fx.db->flush(fx.t);
    ASSERT_TRUE(fr.ok());
    fx.t = fr.done;
  }
  ASSERT_EQ(fx.db->l0_count(), 2u);
  auto rd = fx.fs->readdir(fx.t, "/db");
  ASSERT_TRUE(rd.ok());
  std::string newest;  // zero-padded file numbers sort by name
  for (const auto& e : rd.entries) {
    if (e.name.find(".l0") != std::string::npos && e.name > newest) {
      newest = e.name;
    }
  }
  auto lr = fx.fs->lookup(fx.t, "/db/" + newest);
  ASSERT_TRUE(lr.ok());
  // The table's only entry starts the file with its u16 key length:
  // claim a key far longer than the block.
  const std::vector<std::byte> huge_klen{std::byte{0xff}, std::byte{0xff}};
  auto wr = fx.fs->write(lr.done, lr.inode, 0, huge_klen);
  ASSERT_TRUE(wr.ok());
  fx.t = wr.done;

  const DbGetResult r = fx.db->get(fx.t, "k");
  EXPECT_EQ(r.err, Errno::kEINVAL);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.value, "");
}

TEST(DbTest, CompactionMergesLevels) {
  DbFixture fx;
  // Enough data to trigger several flushes and at least one compaction.
  for (int i = 0; i < 30000; ++i) {
    fx.put(numbered("key", i % 5000), numbered("gen", i / 5000));
  }
  auto fr = fx.db->flush(fx.t);
  ASSERT_TRUE(fr.ok());
  fx.t = fr.done;
  EXPECT_GT(fx.db->stats().compactions, 0u);
  EXPECT_LT(fx.db->l0_count(), 4u);
  // The newest generation wins for a sampled key.
  EXPECT_EQ(fx.get("key100"), "gen5");
}

TEST(DbTest, TombstonesSurviveFlushAndCompaction) {
  DbFixture fx;
  for (int i = 0; i < 3000; ++i) {
    fx.put(numbered("key", i), "v");
  }
  auto r = fx.db->del(fx.t, "key7");
  ASSERT_TRUE(r.ok());
  fx.t = r.done;
  ASSERT_TRUE(fx.db->flush(fx.t).ok());
  bool found = true;
  fx.get("key7", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, RecoveryFromWal) {
  MemDisk disk{(512ull << 20) / 512};
  SimTime t = SimTime::zero();
  ASSERT_TRUE(ExtFs::mkfs(disk, t).ok());
  std::uint64_t last_seq = 0;
  {
    auto mount = ExtFs::mount(disk, t);
    ASSERT_TRUE(mount.ok());
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    Db& db = *open.db;
    t = open.done;
    for (int i = 0; i < 100; ++i) {
      auto r = db.put(t, numbered("k", i), numbered("v", i));
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
    last_seq = db.last_sequence();
    // No flush, no close: simulate the process dying. The fs (buffered)
    // must still be synced for the WAL to be on disk.
    ASSERT_TRUE(mount.fs->sync(t).ok());
  }
  {
    auto mount = ExtFs::mount(disk, t);
    ASSERT_TRUE(mount.ok());
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    EXPECT_EQ(open.wal_records_recovered, 100u);
    EXPECT_GE(open.db->last_sequence(), last_seq);
    auto g = open.db->get(open.done, "k42");
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "v42");
  }
}

TEST(DbTest, RecoveryFromSstsAndWal) {
  MemDisk disk{(512ull << 20) / 512};
  SimTime t = SimTime::zero();
  ASSERT_TRUE(ExtFs::mkfs(disk, t).ok());
  {
    auto mount = ExtFs::mount(disk, t);
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    Db& db = *open.db;
    t = open.done;
    for (int i = 0; i < 5000; ++i) {
      auto r = db.put(t, numbered("k", i), "flushed");
      if (r.err == Errno::kEAGAIN || db.flush_pending()) {
        t = db.do_flush(t).done;
        if (r.err == Errno::kEAGAIN) --i;
      }
      if (r.ok()) t = r.done;
    }
    // A few unflushed writes in the WAL on top.
    for (int i = 0; i < 10; ++i) {
      auto r = db.put(t, numbered("fresh", i), "wal");
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
    ASSERT_TRUE(mount.fs->sync(t).ok());
  }
  {
    auto mount = ExtFs::mount(disk, t);
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    auto g = open.db->get(open.done, "k4321");
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "flushed");
    g = open.db->get(open.done, "fresh3");
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "wal");
  }
}

TEST(DbTest, FatalOnDeviceFailureDuringFlush) {
  DbFixture fx;
  for (int i = 0; i < 100; ++i) {
    fx.put(numbered("k", i), std::string(100, 'x'));
  }
  fx.disk.set_failing(true);
  // Force a flush against the dead device.
  auto fr = fx.db->flush(fx.t);
  EXPECT_FALSE(fr.ok());
  EXPECT_TRUE(fx.db->fatal());
  EXPECT_FALSE(fx.db->fatal_message().empty());
  // All subsequent operations fail.
  EXPECT_EQ(fx.db->put(fr.done, "x", "y").err, Errno::kEIO);
  EXPECT_EQ(fx.db->get(fr.done, "k1").err, Errno::kEIO);
}

TEST(DbTest, WriteStallWhenFlushPending) {
  DbFixture fx;
  // Fill two memtables without running the flush daemon.
  DbConfig cfg = DbFixture::small_config();
  const std::string big(8 << 10, 'z');
  int eagain = 0;
  for (int i = 0; i < 200; ++i) {
    auto r = fx.db->put(fx.t, numbered("k", i), big);
    if (r.err == Errno::kEAGAIN) {
      ++eagain;
      break;
    }
    ASSERT_TRUE(r.ok());
    fx.t = r.done;
  }
  EXPECT_GT(eagain, 0);
  EXPECT_GT(fx.db->stats().stalled_writes, 0u);
  // The flush daemon clears the backlog and writes flow again.
  fx.pump();
  EXPECT_TRUE(fx.db->put(fx.t, "after", "stall").ok());
}

TEST(DbTest, ReadsStallAfterGracePeriod) {
  DbConfig cfg = DbFixture::small_config();
  cfg.stall_grace = sim::Duration::from_seconds(1.0);
  DbFixture fx(cfg);
  const std::string big(8 << 10, 'z');
  // Fill one memtable to switch it, then do NOT flush.
  for (int i = 0; i < 100 && !fx.db->flush_pending(); ++i) {
    auto r = fx.db->put(fx.t, numbered("k", i), big);
    ASSERT_TRUE(r.ok());
    fx.t = r.done;
  }
  ASSERT_TRUE(fx.db->flush_pending());
  // Within the grace period reads work (and see the immutable memtable).
  auto g = fx.db->get(fx.t, "k0");
  EXPECT_TRUE(g.ok());
  EXPECT_TRUE(g.found);
  // Past the grace period the store wedges.
  g = fx.db->get(fx.t + sim::Duration::from_seconds(2.0), "k0");
  EXPECT_EQ(g.err, Errno::kEAGAIN);
  EXPECT_GT(fx.db->stats().stalled_reads, 0u);
}

TEST(DbTest, RandomizedAgainstStdMap) {
  DbFixture fx;
  std::map<std::string, std::string> model;
  sim::Rng rng(2024);
  for (int op = 0; op < 4000; ++op) {
    const std::string key = numbered("k", rng.uniform_int(0, 500));
    if (rng.bernoulli(0.7)) {
      const std::string value = numbered("v", op);
      fx.put(key, value);
      model[key] = value;
    } else {
      auto r = fx.db->del(fx.t, key);
      if (r.err == Errno::kEAGAIN) {
        fx.pump();
        r = fx.db->del(fx.t, key);
      }
      ASSERT_TRUE(r.ok());
      fx.t = r.done;
      model.erase(key);
      if (fx.db->flush_pending()) fx.pump();
    }
  }
  for (int i = 0; i <= 500; ++i) {
    const std::string key = numbered("k", i);
    bool found = false;
    const std::string value = fx.get(key, &found);
    const auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << key;
    if (found) {
      EXPECT_EQ(value, it->second) << key;
    }
  }
}

}  // namespace
}  // namespace deepnote::storage::kvdb
