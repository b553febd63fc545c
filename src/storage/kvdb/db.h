// KvDb: a RocksDB-like LSM key-value store on extfs.
//
// Architecture: WAL + memtable (skiplist); a full memtable is swapped out
// as an immutable memtable and flushed to an L0 SST by a *background*
// flush job (driven by a daemon actor); L0 files compact into a sorted,
// non-overlapping L1. Point lookups consult memtable -> immutable ->
// L0 (newest first) -> L1 with bloom filters.
//
// Backpressure mirrors RocksDB's write stalls: while a flush is pending
// and the active memtable is full again, writes return kEAGAIN; if the
// flush remains stuck past a grace period (the flush thread wedged on a
// dead device), reads stall too — the whole store wedges behind the
// commit path, which is what the paper's Table 2 observes (0 ops/s).
//
// Failure semantics mirror RocksDB's: when a WAL sync or a flush hits an
// I/O error the store enters a fatal state and refuses further writes —
// the paper's Table 3 reports RocksDB crashing with a WAL-sync failure
// ("sysc_without_flush_called") when the drive stops serving I/O.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/extfs.h"
#include "storage/kvdb/memtable.h"
#include "storage/kvdb/sstable.h"
#include "storage/kvdb/wal.h"

namespace deepnote::storage::kvdb {

struct DbConfig {
  std::string root = "/db";
  std::uint64_t write_buffer_bytes = 16ull << 20;
  std::size_t l0_compaction_trigger = 4;
  std::uint64_t target_sst_bytes = 16ull << 20;
  /// CPU cost per operation (key comparison, skiplist walk, checksum).
  sim::Duration put_cpu = sim::Duration::from_micros(4);
  sim::Duration get_cpu = sim::Duration::from_micros(4);
  /// How long a flush may stay pending before reads stall behind it.
  sim::Duration stall_grace = sim::Duration::from_seconds(1.0);
  std::uint64_t seed = 0xdbdbull;
};

struct DbResult {
  Errno err = Errno::kOk;
  sim::SimTime done = sim::SimTime::zero();
  bool ok() const { return err == Errno::kOk; }
};

struct DbGetResult {
  Errno err = Errno::kOk;
  sim::SimTime done = sim::SimTime::zero();
  bool found = false;
  std::string value;
  bool ok() const { return err == Errno::kOk; }
};

struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t memtable_hits = 0;
  std::uint64_t sst_block_reads = 0;
  std::uint64_t stalled_writes = 0;
  std::uint64_t stalled_reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class Db {
 public:
  struct OpenResult {
    Errno err = Errno::kOk;
    sim::SimTime done = sim::SimTime::zero();
    std::unique_ptr<Db> db;
    std::uint64_t wal_records_recovered = 0;
    /// Leftovers of failed/crashed flushes deleted during recovery; their
    /// contents were still covered by a live WAL (see open_sst).
    std::uint64_t corrupt_ssts_removed = 0;
    /// Orphaned compaction outputs found overlapping surviving L1 inputs
    /// after a crash; demoted to L0 until the next compaction.
    std::uint64_t l1_overlaps_demoted = 0;
    bool ok() const { return err == Errno::kOk; }
  };
  static OpenResult open(ExtFs& fs, sim::SimTime now, DbConfig config = {});

  /// Writes return kEAGAIN (retry later) while the store is stalled on a
  /// pending flush; reads return kEAGAIN once the stall outlives the
  /// grace period.
  DbResult put(sim::SimTime now, std::string_view key, std::string_view value);
  DbResult del(sim::SimTime now, std::string_view key);
  /// On a warm store, allocates at most the value it returns: SST data
  /// blocks are decoded in place (tests/storage/kvdb_alloc_test.cc).
  DbGetResult get(sim::SimTime now, std::string_view key);

  /// Offline-style integrity check of every SST: entries in internal-key
  /// order, keys within the file's [smallest, largest] bounds, entry
  /// counts matching the footer, every key present in the bloom filter.
  struct VerifyReport {
    Errno err = Errno::kOk;  ///< kEIO when the check itself failed
    sim::SimTime done = sim::SimTime::zero();
    std::vector<std::string> problems;
    bool clean() const { return err == Errno::kOk && problems.empty(); }
  };
  VerifyReport verify_integrity(sim::SimTime now);

  /// Background flush job, driven by a daemon actor.
  bool flush_pending() const { return immutable_ != nullptr; }
  DbResult do_flush(sim::SimTime now);

  /// Foreground flush: swap + flush everything now (setup/teardown).
  DbResult flush(sim::SimTime now);
  /// Sync the WAL and flush; the object must not be used afterward.
  DbResult close(sim::SimTime now);

  /// Fatal-state inspection: once fatal, every operation fails with kEIO.
  bool fatal() const { return fatal_; }
  const std::string& fatal_message() const { return fatal_message_; }
  sim::SimTime fatal_time() const { return fatal_time_; }

  const DbStats& stats() const { return stats_; }
  std::uint64_t memtable_bytes() const {
    return memtable_ ? memtable_->approximate_bytes() : 0;
  }
  std::size_t l0_count() const { return l0_.size(); }
  std::size_t l1_count() const { return l1_.size(); }
  std::uint64_t last_sequence() const { return last_sequence_; }

 private:
  Db(ExtFs& fs, DbConfig config);

  std::string file_path(std::uint64_t number, const char* ext) const;
  void enter_fatal(sim::SimTime when, std::string message);

  /// Swap the full memtable + WAL into the immutable slot; the flush
  /// daemon persists them.
  DbResult switch_memtable(sim::SimTime now);
  DbResult compact(sim::SimTime now);

  ExtFs& fs_;
  DbConfig config_;
  sim::Rng rng_;

  std::unique_ptr<MemTable> memtable_;
  std::unique_ptr<MemTable> immutable_;   // pending flush
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Wal> old_wal_;          // WAL of the immutable memtable
  std::uint64_t wal_number_ = 0;
  std::uint64_t old_wal_number_ = 0;
  sim::SimTime flush_pending_since_ = sim::SimTime::zero();
  std::vector<std::unique_ptr<SstReader>> l0_;  // newest first
  std::vector<std::unique_ptr<SstReader>> l1_;  // sorted by smallest key

  std::uint64_t next_file_number_ = 1;
  std::uint64_t last_sequence_ = 0;

  bool fatal_ = false;
  std::string fatal_message_;
  sim::SimTime fatal_time_ = sim::SimTime::zero();

  DbStats stats_;
};

}  // namespace deepnote::storage::kvdb
