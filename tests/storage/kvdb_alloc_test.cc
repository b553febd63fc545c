// Allocation accounting for the kvdb point-read path.
//
// The contract: on a warm store, Db::get allocates at most the value it
// returns. A get served from an SST decodes its data block in place, in a
// buffer the reader keeps, so neither the block nor the keys and values
// it walks past touch the heap; a memtable hit copies the one value; a
// miss allocates nothing. Keys and values are db_bench's (16 and 64
// bytes), so neither fits the small-string buffer. This binary overrides
// the global allocator to count, so it must stay its own test executable
// (mirrors tests/cluster/engine_alloc_test.cc).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "storage/kvdb/db.h"
#include "storage/mem_disk.h"
#include "workload/db_bench.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Kept out of line: once inlined next to a call of the replaced operator
// new, GCC pairs that call with the free() below and warns
// (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;
using workload::DbBench;

constexpr std::uint32_t kKeyBytes = 16;
constexpr std::uint32_t kValueBytes = 64;
constexpr std::uint64_t kPreload = 2000;   // even indices 0 .. 2*kPreload-2
constexpr std::uint64_t kOverwrite = 100;  // the first 100 even indices

// db_bench's store: the even-indexed keys flushed to one L0 table, the
// first kOverwrite of them overwritten in the memtable with new values.
// Odd indices fall between stored keys and miss.
struct AllocFixture {
  MemDisk disk{(256ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  std::unique_ptr<Db> db;
  SimTime t = SimTime::zero();

  AllocFixture() {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    auto open = Db::open(*fs, mount.done);
    EXPECT_TRUE(open.ok());
    db = std::move(open.db);
    t = open.done;
    for (std::uint64_t i = 0; i < kPreload; ++i) put(2 * i, 2 * i);
    const DbResult fr = db->flush(t);
    EXPECT_TRUE(fr.ok());
    t = fr.done;
    for (std::uint64_t i = 0; i < kOverwrite; ++i) put(2 * i, 2 * i + 1);
    EXPECT_EQ(db->l0_count(), 1u);
    EXPECT_FALSE(db->flush_pending());
  }

  void put(std::uint64_t key_index, std::uint64_t value_index) {
    const DbResult r = db->put(t, DbBench::make_key(key_index, kKeyBytes),
                               DbBench::make_value(value_index, kValueBytes));
    EXPECT_TRUE(r.ok());
    t = r.done;
  }
};

// Keys, and the values each get must return, built before counting.
struct Probe {
  std::string key;
  std::string value;  // empty: a miss
};

std::vector<Probe> sst_probes() {
  std::vector<Probe> out;
  for (std::uint64_t i = kOverwrite; i < kPreload; ++i) {
    out.push_back({DbBench::make_key(2 * i, kKeyBytes),
                   DbBench::make_value(2 * i, kValueBytes)});
  }
  return out;
}

std::vector<Probe> memtable_probes() {
  std::vector<Probe> out;
  for (std::uint64_t i = 0; i < kOverwrite; ++i) {
    out.push_back({DbBench::make_key(2 * i, kKeyBytes),
                   DbBench::make_value(2 * i + 1, kValueBytes)});
  }
  return out;
}

std::vector<Probe> miss_probes() {
  std::vector<Probe> out;
  for (std::uint64_t i = 0; i < kPreload; ++i) {
    out.push_back({DbBench::make_key(2 * i + 1, kKeyBytes), {}});
  }
  return out;
}

struct CountedPass {
  std::uint64_t allocs = 0;
  /// Gets that read a data block: their simulated latency exceeds the
  /// store's fixed per-get CPU charge by the extfs read.
  std::uint64_t block_reads = 0;
};

// Runs every probe once to warm the store (page cache, the reader's
// block buffer, the memtable's key scratch), then again while counting.
// Every get must return the expected value.
CountedPass count_gets(AllocFixture& fx, const std::vector<Probe>& probes) {
  for (const Probe& p : probes) {
    const DbGetResult r = fx.db->get(fx.t, p.key);
    EXPECT_TRUE(r.ok());
    fx.t = r.done;
  }
  const sim::Duration get_cpu = DbConfig{}.get_cpu;
  CountedPass pass;
  std::uint64_t wrong = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (const Probe& p : probes) {
    const DbGetResult r = fx.db->get(fx.t, p.key);
    if (r.done - fx.t > get_cpu) ++pass.block_reads;
    fx.t = r.done;
    if (!r.ok() || r.found != !p.value.empty() || r.value != p.value) {
      ++wrong;
    }
  }
  pass.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(wrong, 0u);
  return pass;
}

TEST(KvdbAllocTest, SstServedGetAllocatesOnlyTheValue) {
  AllocFixture fx;
  const std::vector<Probe> probes = sst_probes();
  const CountedPass pass = count_gets(fx, probes);
  EXPECT_EQ(pass.block_reads, probes.size());
  EXPECT_LE(pass.allocs, probes.size())
      << "allocations per get: "
      << static_cast<double>(pass.allocs) / probes.size();
}

TEST(KvdbAllocTest, MemtableServedGetAllocatesOnlyTheValue) {
  AllocFixture fx;
  const std::vector<Probe> probes = memtable_probes();
  const CountedPass pass = count_gets(fx, probes);
  EXPECT_EQ(pass.block_reads, 0u);
  EXPECT_LE(pass.allocs, probes.size())
      << "allocations per get: "
      << static_cast<double>(pass.allocs) / probes.size();
}

TEST(KvdbAllocTest, MissAllocatesNothing) {
  AllocFixture fx;
  const CountedPass pass = count_gets(fx, miss_probes());
  // Bloom false positives read a block and walk it to where the key would
  // be: that path is allocation-free too.
  EXPECT_GT(pass.block_reads, 0u);
  EXPECT_EQ(pass.allocs, 0u);
}

}  // namespace
}  // namespace deepnote::storage::kvdb
