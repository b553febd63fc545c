// Tests for the db_bench-like workload suite on the full stack
// (MemDisk-backed for speed).
#include <gtest/gtest.h>

#include "storage/extfs.h"
#include "storage/kvdb/db.h"
#include "storage/mem_disk.h"
#include "workload/db_bench.h"

namespace deepnote::workload {
namespace {

using sim::Duration;
using sim::SimTime;

struct BenchFixture {
  storage::MemDisk disk{(1ull << 30) / 512};
  std::unique_ptr<storage::ExtFs> fs;
  std::unique_ptr<storage::kvdb::Db> db;
  SimTime t = SimTime::zero();
  DbBenchConfig cfg;

  BenchFixture() {
    EXPECT_TRUE(storage::ExtFs::mkfs(disk, t).ok());
    auto mount = storage::ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    storage::kvdb::DbConfig db_cfg;
    db_cfg.write_buffer_bytes = 4 << 20;
    auto open = storage::kvdb::Db::open(*fs, mount.done, db_cfg);
    EXPECT_TRUE(open.ok());
    db = std::move(open.db);
    t = open.done;

    cfg.preload_keys = 20000;
    cfg.ramp = Duration::from_seconds(0.5);
    cfg.duration = Duration::from_seconds(3.0);
  }

  DbBench bench() { return DbBench(*fs, *db); }

  void preload() {
    DbBench b = bench();
    t = b.fillseq(t, cfg.preload_keys, cfg);
    ASSERT_FALSE(db->fatal());
    auto fl = db->flush(t);
    ASSERT_TRUE(fl.ok());
    t = fl.done;
  }
};

TEST(DbBenchTest, MakeKeyIsFixedWidthAndOrdered) {
  const auto a = DbBench::make_key(1, 16);
  const auto b = DbBench::make_key(2, 16);
  const auto big = DbBench::make_key(123456789, 16);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(big.size(), 16u);
  EXPECT_LT(a, b);
  EXPECT_LT(b, big);
}

TEST(DbBenchTest, FillseqLoadsAllKeys) {
  BenchFixture fx;
  fx.preload();
  auto g = fx.db->get(fx.t, DbBench::make_key(0, fx.cfg.key_bytes));
  EXPECT_TRUE(g.found);
  g = fx.db->get(fx.t, DbBench::make_key(fx.cfg.preload_keys - 1,
                                         fx.cfg.key_bytes));
  EXPECT_TRUE(g.found);
}

TEST(DbBenchTest, ReadWhileWritingMixesActors) {
  BenchFixture fx;
  fx.preload();
  DbBenchConfig cfg = fx.cfg;
  cfg.reader_actors = 2;
  const DbBenchReport report = fx.bench().readwhilewriting(fx.t, cfg);
  EXPECT_GT(report.ops, 1000u);
  // The writer extended the key space beyond the preload.
  EXPECT_GT(fx.db->last_sequence(), fx.cfg.preload_keys);
}

TEST(DbBenchTest, ReportsFatalWhenDeviceDies) {
  BenchFixture fx;
  fx.preload();
  fx.disk.fail_after(50);
  DbBenchConfig cfg = fx.cfg;
  cfg.duration = Duration::from_seconds(10.0);
  const DbBenchReport report = fx.bench().readwhilewriting(fx.t, cfg);
  EXPECT_TRUE(report.db_fatal);
  EXPECT_FALSE(report.fatal_message.empty());
}

}  // namespace
}  // namespace deepnote::workload
