#include "workload/db_bench.h"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

namespace deepnote::workload {

using storage::kvdb::DbGetResult;
using storage::kvdb::DbResult;

namespace {

/// Filesystem writeback cadence and chunk, shared by fillseq's inline
/// writeback and readwhilewriting's writeback daemon.
constexpr sim::Duration kWritebackInterval = sim::Duration::from_millis(100);
constexpr std::uint64_t kWritebackChunkBytes = 8ull << 20;

}  // namespace

void DbBench::make_key_into(std::uint64_t index, std::uint32_t key_bytes,
                            std::string& out) {
  // 20-digit zero-padded decimal, then either the last key_bytes digits
  // or 'k'-padding up to key_bytes — matching make_key() byte for byte.
  char digits[20];
  std::uint64_t v = index;
  for (int i = 19; i >= 0; --i) {
    digits[i] = static_cast<char>('0' + v % 10);
    v /= 10;
  }
  if (key_bytes < 20) {
    out.assign(digits + (20 - key_bytes), key_bytes);
  } else {
    out.assign(digits, 20);
    out.resize(key_bytes, 'k');
  }
}

void DbBench::make_value_into(std::uint64_t index, std::uint32_t value_bytes,
                              std::string& out) {
  out.resize(value_bytes);
  std::uint32_t c = static_cast<std::uint32_t>(index % 26);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>('a' + c);
    if (++c == 26) c = 0;
  }
}

std::string DbBench::make_key(std::uint64_t index, std::uint32_t key_bytes) {
  std::string key;
  make_key_into(index, key_bytes, key);
  return key;
}

std::string DbBench::make_value(std::uint64_t index,
                                std::uint32_t value_bytes) {
  std::string v;
  make_value_into(index, value_bytes, v);
  return v;
}

sim::SimTime DbBench::fillseq(sim::SimTime start, std::uint64_t count,
                              const DbBenchConfig& config) {
  sim::SimTime t = start;
  for (std::uint64_t i = 0; i < count; ++i) {
    make_key_into(i, config.key_bytes, key_scratch_);
    make_value_into(i, config.value_bytes, value_scratch_);
    DbResult r = db_.put(t, key_scratch_, value_scratch_);
    t = r.done;
    if (r.err == storage::Errno::kEAGAIN || db_.flush_pending()) {
      DbResult fr = db_.do_flush(t);
      t = fr.done;
      if (!fr.ok()) break;
      if (r.err == storage::Errno::kEAGAIN) --i;  // retry the stalled put
      continue;
    }
    if (!r.ok()) break;
    // Keep the filesystem daemons roughly current during the preload.
    if ((i & 0x3ff) == 0) {
      if (fs_.commit_due(t)) t = fs_.commit(t).done;
      storage::FsResult wb = fs_.writeback(t, kWritebackChunkBytes);
      if (wb.ok()) t = wb.done;
    }
  }
  return t;
}

DbBenchReport DbBench::readwhilewriting(sim::SimTime start,
                                        const DbBenchConfig& config) {
  const sim::SimTime window_start = start + config.ramp;
  const sim::SimTime window_end = window_start + config.duration;
  WindowMeter meter(window_start, window_end);

  sim::Rng seeder(config.seed);
  std::uint64_t next_key = config.preload_keys;
  std::uint64_t key_space = std::max<std::uint64_t>(config.preload_keys, 1);

  // Writer actor.
  LambdaActor writer(start, [&, rng = seeder.fork()](
                                sim::SimTime now) mutable -> sim::SimTime {
    if (db_.fatal()) return sim::SimTime::infinity();
    const std::uint64_t idx = next_key;
    make_key_into(idx, config.key_bytes, key_scratch_);
    make_value_into(idx, config.value_bytes, value_scratch_);
    DbResult r = db_.put(now, key_scratch_, value_scratch_);
    if (r.err == storage::Errno::kEAGAIN) {
      // Write stall: retry shortly, record nothing.
      return r.done + sim::Duration::from_millis(10);
    }
    if (r.ok()) {
      ++next_key;
      key_space = next_key;
      meter.record_ok(now, r.done,
                      config.key_bytes + config.value_bytes);
    } else {
      meter.record_error(r.done);
    }
    return r.done + config.writer_think;
  });

  // Reader actors.
  std::vector<std::unique_ptr<LambdaActor>> readers;
  for (std::uint32_t i = 0; i < config.reader_actors; ++i) {
    readers.push_back(std::make_unique<LambdaActor>(
        start, [&, rng = seeder.fork()](
                   sim::SimTime now) mutable -> sim::SimTime {
          if (db_.fatal()) return sim::SimTime::infinity();
          const auto idx = static_cast<std::uint64_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(key_space) - 1));
          make_key_into(idx, config.key_bytes, key_scratch_);
          DbGetResult r = db_.get(now, key_scratch_);
          if (r.err == storage::Errno::kEAGAIN) {
            return r.done + sim::Duration::from_millis(10);
          }
          if (r.ok()) {
            meter.record_ok(now, r.done,
                            config.key_bytes +
                                (r.found ? r.value.size() : 0));
          } else {
            meter.record_error(r.done);
          }
          return r.done;
        }));
  }

  // Background flush thread.
  LambdaActor flush_daemon(
      start, [&](sim::SimTime now) -> sim::SimTime {
        if (db_.fatal()) return sim::SimTime::infinity();
        if (db_.flush_pending()) {
          DbResult r = db_.do_flush(now);
          return sim::max(r.done, now + sim::Duration::from_millis(10));
        }
        return now + sim::Duration::from_millis(10);
      });

  // Filesystem daemons.
  LambdaActor commit_daemon(
      start, [&](sim::SimTime now) -> sim::SimTime {
        if (fs_.read_only()) return sim::SimTime::infinity();
        if (fs_.commit_due(now)) {
          storage::FsResult r = fs_.commit(now);
          return sim::max(r.done,
                          now + sim::Duration::from_millis(100));
        }
        return now + sim::Duration::from_millis(100);
      });
  LambdaActor writeback_daemon(
      start, [&](sim::SimTime now) -> sim::SimTime {
        if (fs_.read_only()) return sim::SimTime::infinity();
        if (fs_.dirty_bytes() == 0) return now + kWritebackInterval;
        storage::FsResult r = fs_.writeback(now, kWritebackChunkBytes);
        return sim::max(r.done, now + kWritebackInterval);
      });

  ActorScheduler sched;
  sched.add(writer);
  for (auto& r : readers) sched.add(*r);
  sched.add(flush_daemon);
  sched.add(commit_daemon);
  sched.add(writeback_daemon);
  const sim::SimTime last = sched.run_until(window_end);

  DbBenchReport report;
  report.throughput_mbps = meter.throughput_mbps();
  report.ops_per_second = meter.ops_per_second();
  report.ops = meter.ops();
  report.errors = meter.errors();
  report.db_fatal = db_.fatal();
  report.fatal_message = db_.fatal_message();
  report.fatal_time = db_.fatal_time();
  report.end_time = sim::max(last, window_end);
  return report;
}

}  // namespace deepnote::workload
