// db_bench-like workloads for the LSM key-value store.
//
// Implements the two workloads the paper uses:
//  * fillseq           — sequential preload (setup phase)
//  * readwhilewriting  — one writer actor plus reader actors, the
//                        standard RocksDB benchmark quoted in Table 2.
//
// The runner interleaves the db actors with the filesystem's commit and
// writeback daemons through the actor scheduler, so background I/O (and
// its failures under attack) happens at the right simulated times.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/rng.h"
#include "storage/extfs.h"
#include "storage/kvdb/db.h"
#include "workload/actor.h"
#include "workload/meter.h"

namespace deepnote::workload {

struct DbBenchConfig {
  std::uint32_t key_bytes = 16;
  std::uint32_t value_bytes = 64;
  std::uint32_t reader_actors = 1;
  /// Pause between writer ops beyond the store's own latency (rate
  /// limiting); zero = write as fast as the store allows.
  sim::Duration writer_think = sim::Duration::zero();
  sim::Duration ramp = sim::Duration::from_seconds(10.0);
  sim::Duration duration = sim::Duration::from_seconds(30.0);
  /// Keys preloaded before the measured phase.
  std::uint64_t preload_keys = 100000;
  std::uint64_t seed = 0xdbbe;
};

struct DbBenchReport {
  double throughput_mbps = 0.0;
  double ops_per_second = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  bool db_fatal = false;
  std::string fatal_message;
  sim::SimTime fatal_time = sim::SimTime::zero();
  sim::SimTime end_time = sim::SimTime::zero();
};

class DbBench {
 public:
  DbBench(storage::ExtFs& fs, storage::kvdb::Db& db) : fs_(fs), db_(db) {}

  /// Sequentially load `count` keys starting at `start`. Returns the
  /// completion time (or the fatal time on failure).
  sim::SimTime fillseq(sim::SimTime start, std::uint64_t count,
                       const DbBenchConfig& config);

  /// The paper's Table 2 workload.
  DbBenchReport readwhilewriting(sim::SimTime start,
                                 const DbBenchConfig& config);

  static std::string make_key(std::uint64_t index, std::uint32_t key_bytes);
  static std::string make_value(std::uint64_t index,
                                std::uint32_t value_bytes);

  /// In-place variants for the hot loops: format into `out` (reusing its
  /// capacity) instead of returning a fresh string. Byte-identical to the
  /// returning forms.
  static void make_key_into(std::uint64_t index, std::uint32_t key_bytes,
                            std::string& out);
  static void make_value_into(std::uint64_t index, std::uint32_t value_bytes,
                              std::string& out);

 private:
  storage::ExtFs& fs_;
  storage::kvdb::Db& db_;
  // Per-op scratch for key/value formatting. The workload actors run
  // strictly sequentially (virtual-time scheduler), and the store copies
  // key/value bytes before returning, so one scratch pair is safe.
  std::string key_scratch_;
  std::string value_scratch_;
};

}  // namespace deepnote::workload
