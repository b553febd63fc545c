#include "storage/kvdb/db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <queue>

namespace deepnote::storage::kvdb {

Db::Db(ExtFs& fs, DbConfig config)
    : fs_(fs), config_(std::move(config)), rng_(config_.seed) {
  memtable_ = std::make_unique<MemTable>(rng_.next_u64());
}

std::string Db::file_path(std::uint64_t number, const char* ext) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06" PRIu64 ".%s", number, ext);
  return config_.root + buf;
}

void Db::enter_fatal(sim::SimTime when, std::string message) {
  if (fatal_) return;
  fatal_ = true;
  fatal_message_ = std::move(message);
  fatal_time_ = when;
}

// ===========================================================================
// Open / recovery

Db::OpenResult Db::open(ExtFs& fs, sim::SimTime now, DbConfig config) {
  OpenResult out;
  auto db = std::unique_ptr<Db>(new Db(fs, std::move(config)));

  FsResult md = fs.mkdir(now, db->config_.root);
  if (!md.ok() && md.err != Errno::kEEXIST) {
    out.err = md.err;
    out.done = md.done;
    return out;
  }
  sim::SimTime t = md.done;

  FsReaddirResult rd = fs.readdir(t, db->config_.root);
  if (!rd.ok()) {
    out.err = rd.err;
    out.done = rd.done;
    return out;
  }
  t = rd.done;

  struct Found {
    std::uint64_t number;
    std::string name;
  };
  std::vector<Found> l0s, l1s, wals;
  for (const auto& e : rd.entries) {
    std::uint64_t number = 0;
    char ext[8] = {};
    if (std::sscanf(e.name.c_str(), "%06" SCNu64 ".%7s", &number, ext) == 2) {
      if (std::string_view(ext) == "l0") l0s.push_back({number, e.name});
      else if (std::string_view(ext) == "l1") l1s.push_back({number, e.name});
      else if (std::string_view(ext) == "wal") wals.push_back({number, e.name});
      db->next_file_number_ = std::max(db->next_file_number_, number + 1);
    }
  }
  // L0: newest (highest number) first.
  std::sort(l0s.begin(), l0s.end(),
            [](const Found& a, const Found& b) { return a.number > b.number; });
  std::sort(l1s.begin(), l1s.end(),
            [](const Found& a, const Found& b) { return a.number < b.number; });
  std::sort(wals.begin(), wals.end(),
            [](const Found& a, const Found& b) { return a.number < b.number; });

  struct OpenedSst {
    std::uint64_t number = 0;
    std::unique_ptr<SstReader> reader;
  };
  auto open_sst = [&](const Found& f, std::vector<OpenedSst>& into) -> bool {
    auto r = SstReader::open(fs, t, db->config_.root + "/" + f.name);
    t = r.done;
    if (r.err == Errno::kEINVAL) {
      // Structurally corrupt: the leftover of a failed or crashed flush.
      // Its WAL was only retired after a successful SstReader::open, so
      // the data is still in a .wal below — delete the garbage and move
      // on (RocksDB does the same for files missing from the manifest).
      FsResult ul = fs.unlink(t, db->config_.root + "/" + f.name);
      t = ul.done;
      if (!ul.ok()) {
        out.err = ul.err;
        return false;
      }
      ++out.corrupt_ssts_removed;
      return true;
    }
    if (!r.ok()) {
      out.err = r.err;
      return false;
    }
    // The open only proves the tail of the file (footer, filter, index)
    // reached the disk. An I/O-error burst during writeback can land
    // those pages while dropping data pages in the middle, leaving a
    // file that opens cleanly and then fails mid-read — compact() hits
    // the write error and goes fatal without a chance to clean up (and
    // a power cut never gives it one). Inputs are unlinked only after
    // every output opens, so a file that fails a full structural scan
    // is always a redundant partial copy: its data is still in a .wal
    // or in the surviving input SSTs. Delete it like an open-time
    // EINVAL. A real disk error (EIO) still fails the open instead.
    FsResult sc = r.reader->scan(t, [](const BlockEntry&) {});
    t = sc.done;
    if (sc.err == Errno::kEINVAL) {
      FsResult ul = fs.unlink(t, db->config_.root + "/" + f.name);
      t = ul.done;
      if (!ul.ok()) {
        out.err = ul.err;
        return false;
      }
      ++out.corrupt_ssts_removed;
      return true;
    }
    if (!sc.ok()) {
      out.err = sc.err;
      return false;
    }
    db->last_sequence_ =
        std::max(db->last_sequence_, r.reader->max_sequence());
    into.push_back({f.number, std::move(r.reader)});
    return true;
  };
  std::vector<OpenedSst> l0r, l1r;
  for (const auto& f : l0s) {
    if (!open_sst(f, l0r)) {
      out.done = t;
      return out;
    }
  }
  for (const auto& f : l1s) {
    if (!open_sst(f, l1r)) {
      out.done = t;
      return out;
    }
  }
  std::sort(l1r.begin(), l1r.end(), [](const auto& a, const auto& b) {
    return a.reader->smallest() < b.reader->smallest();
  });

  // Resolve L1 overlaps left by a crashed compaction. Outputs are
  // fsync'd before the input unlinks commit, so a crash can leave both
  // generations visible, and there is no manifest to arbitrate. The
  // higher-numbered file of an overlapping pair is the orphaned
  // compaction output — a merged duplicate of the surviving inputs —
  // so demote it to L0, where lookup precedence is by recency. The
  // next compaction folds everything back into a disjoint L1.
  std::vector<OpenedSst> l1_keep;
  for (auto& s : l1r) {
    if (!l1_keep.empty() &&
        !(l1_keep.back().reader->largest() < s.reader->smallest())) {
      ++out.l1_overlaps_demoted;
      if (s.number > l1_keep.back().number) {
        l0r.push_back(std::move(s));
      } else {
        l0r.push_back(std::move(l1_keep.back()));
        l1_keep.back() = std::move(s);
      }
      continue;
    }
    l1_keep.push_back(std::move(s));
  }

  // L0: newest (highest number) first.
  std::sort(l0r.begin(), l0r.end(), [](const auto& a, const auto& b) {
    return a.number > b.number;
  });
  for (auto& s : l0r) db->l0_.push_back(std::move(s.reader));
  for (auto& s : l1_keep) db->l1_.push_back(std::move(s.reader));

  // Replay WALs oldest-first, then delete them (their contents will be in
  // the next flush).
  for (const auto& f : wals) {
    auto rr = Wal::replay(
        fs, t, db->config_.root + "/" + f.name,
        [&](EntryType type, std::string_view key, std::string_view value,
            std::uint64_t seq) {
          if (type == EntryType::kPut) {
            db->memtable_->put(key, value, seq);
          } else {
            db->memtable_->del(key, seq);
          }
          db->last_sequence_ = std::max(db->last_sequence_, seq);
        });
    t = rr.done;
    if (rr.err != Errno::kOk) {
      out.err = rr.err;
      out.done = t;
      return out;
    }
    out.wal_records_recovered += rr.records;
    FsResult ul = fs.unlink(t, db->config_.root + "/" + f.name);
    t = ul.done;
    if (!ul.ok()) {
      out.err = ul.err;
      out.done = t;
      return out;
    }
  }

  // Fresh WAL.
  db->wal_number_ = db->next_file_number_++;
  auto wr = Wal::create(fs, t, db->file_path(db->wal_number_, "wal"));
  t = wr.done;
  if (!wr.ok()) {
    out.err = wr.err;
    out.done = t;
    return out;
  }
  db->wal_ = std::move(wr.wal);

  out.done = t;
  out.db = std::move(db);
  return out;
}

// ===========================================================================
// Writes

DbResult Db::put(sim::SimTime now, std::string_view key,
                 std::string_view value) {
  if (fatal_) return DbResult{Errno::kEIO, now};
  if (immutable_ &&
      (memtable_->approximate_bytes() >= config_.write_buffer_bytes ||
       now - flush_pending_since_ > config_.stall_grace)) {
    // Write stall: the active memtable is full again, or the flush thread
    // has been wedged long enough that the write path is blocked behind
    // the outstanding WAL sync.
    ++stats_.stalled_writes;
    return DbResult{Errno::kEAGAIN, now + config_.put_cpu};
  }
  sim::SimTime t = now + config_.put_cpu;
  ++stats_.puts;
  const std::uint64_t seq = ++last_sequence_;
  FsResult ap = wal_->append(t, EntryType::kPut, key, value, seq);
  t = ap.done;
  if (!ap.ok()) {
    enter_fatal(t, std::string("WAL append failed: ") + errno_name(ap.err));
    return DbResult{Errno::kEIO, t};
  }
  memtable_->put(key, value, seq);
  stats_.bytes_written += key.size() + value.size();
  if (!immutable_ &&
      memtable_->approximate_bytes() >= config_.write_buffer_bytes) {
    DbResult fr = switch_memtable(t);
    if (!fr.ok()) return fr;
    t = fr.done;
  }
  return DbResult{Errno::kOk, t};
}

DbResult Db::del(sim::SimTime now, std::string_view key) {
  if (fatal_) return DbResult{Errno::kEIO, now};
  if (immutable_ &&
      (memtable_->approximate_bytes() >= config_.write_buffer_bytes ||
       now - flush_pending_since_ > config_.stall_grace)) {
    ++stats_.stalled_writes;
    return DbResult{Errno::kEAGAIN, now + config_.put_cpu};
  }
  sim::SimTime t = now + config_.put_cpu;
  ++stats_.deletes;
  const std::uint64_t seq = ++last_sequence_;
  FsResult ap = wal_->append(t, EntryType::kDelete, key, {}, seq);
  t = ap.done;
  if (!ap.ok()) {
    enter_fatal(t, std::string("WAL append failed: ") + errno_name(ap.err));
    return DbResult{Errno::kEIO, t};
  }
  memtable_->del(key, seq);
  if (!immutable_ &&
      memtable_->approximate_bytes() >= config_.write_buffer_bytes) {
    DbResult fr = switch_memtable(t);
    if (!fr.ok()) return fr;
    t = fr.done;
  }
  return DbResult{Errno::kOk, t};
}

DbResult Db::switch_memtable(sim::SimTime now) {
  sim::SimTime t = now;
  immutable_ = std::move(memtable_);
  old_wal_ = std::move(wal_);
  old_wal_number_ = wal_number_;
  flush_pending_since_ = t;

  wal_number_ = next_file_number_++;
  auto wc = Wal::create(fs_, t, file_path(wal_number_, "wal"));
  t = wc.done;
  if (!wc.ok()) {
    enter_fatal(t, "WAL creation failed");
    return DbResult{Errno::kEIO, t};
  }
  wal_ = std::move(wc.wal);
  memtable_ = std::make_unique<MemTable>(rng_.next_u64());
  return DbResult{Errno::kOk, t};
}

DbResult Db::do_flush(sim::SimTime now) {
  if (fatal_) return DbResult{Errno::kEIO, now};
  if (!immutable_) return DbResult{Errno::kOk, now};
  sim::SimTime t = now;
  ++stats_.flushes;

  // RocksDB syncs the outgoing WAL before its memtable is flushed; a
  // failure here is the paper's RocksDB crash signature.
  ++stats_.wal_syncs;
  FsResult sr = old_wal_->sync(t);
  t = sr.done;
  if (!sr.ok()) {
    enter_fatal(t,
                "sync_without_flush_called: WAL sync failed (" +
                    std::string(errno_name(sr.err)) + ")");
    return DbResult{Errno::kEIO, t};
  }

  // Write the immutable memtable out as an L0 file.
  SstBuilder builder(immutable_->entry_count());
  immutable_->for_each([&](std::string_view key, const MemEntry& e) {
    builder.add(key, e);
  });
  const std::uint64_t file_no = next_file_number_++;
  FsResult wr = builder.write_to(fs_, t, file_path(file_no, "l0"));
  t = wr.done;
  if (!wr.ok()) {
    enter_fatal(t, std::string("memtable flush failed: ") +
                       errno_name(wr.err));
    return DbResult{Errno::kEIO, t};
  }
  auto open = SstReader::open(fs_, t, file_path(file_no, "l0"));
  t = open.done;
  if (!open.ok()) {
    enter_fatal(t, "flushed SST unreadable");
    return DbResult{Errno::kEIO, t};
  }
  l0_.insert(l0_.begin(), std::move(open.reader));
  immutable_.reset();

  // Retire the flushed WAL.
  FsResult ul = fs_.unlink(t, file_path(old_wal_number_, "wal"));
  t = ul.done;
  old_wal_.reset();
  if (!ul.ok()) {
    enter_fatal(t, "WAL retirement failed");
    return DbResult{Errno::kEIO, t};
  }

  if (l0_.size() >= config_.l0_compaction_trigger) {
    DbResult cr = compact(t);
    if (!cr.ok()) return cr;
    t = cr.done;
  }
  return DbResult{Errno::kOk, t};
}

DbResult Db::compact(sim::SimTime now) {
  sim::SimTime t = now;
  ++stats_.compactions;

  // Load every input (all L0 + all L1) and k-way merge by internal key.
  struct Input {
    // (user key, entry) in internal-key order, copied out of the blocks.
    std::vector<std::pair<std::string, MemEntry>> entries;
    std::size_t pos = 0;
  };
  std::vector<Input> inputs;
  std::vector<std::string> input_paths;
  auto load = [&](SstReader& r) -> Errno {
    Input in;
    FsResult sr = r.scan(t, [&](const BlockEntry& e) {
      in.entries.emplace_back(
          std::string(e.user_key),
          MemEntry{e.type, e.sequence, std::string(e.value)});
    });
    t = sr.done;
    if (!sr.ok()) return sr.err;
    inputs.push_back(std::move(in));
    input_paths.push_back(r.path());
    return Errno::kOk;
  };
  for (auto& r : l0_) {
    Errno e = load(*r);
    if (e != Errno::kOk) {
      enter_fatal(t, "compaction input read failed");
      return DbResult{Errno::kEIO, t};
    }
  }
  for (auto& r : l1_) {
    Errno e = load(*r);
    if (e != Errno::kOk) {
      enter_fatal(t, "compaction input read failed");
      return DbResult{Errno::kEIO, t};
    }
  }

  auto cmp = [&](std::size_t a, std::size_t b) {
    // min-heap on internal key order (user key asc, sequence desc).
    const auto& [ka, ea] = inputs[a].entries[inputs[a].pos];
    const auto& [kb, eb] = inputs[b].entries[inputs[b].pos];
    return internal_less(kb, eb.sequence, ka, ea.sequence);
  };
  std::priority_queue<std::size_t, std::vector<std::size_t>, decltype(cmp)>
      heap(cmp);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!inputs[i].entries.empty()) heap.push(i);
  }

  // Emit the newest version of each user key; drop tombstones (this is a
  // full compaction — nothing older remains beneath L1).
  std::vector<std::unique_ptr<SstBuilder>> outputs;
  std::vector<std::uint64_t> output_numbers;
  auto new_output = [&] {
    outputs.push_back(std::make_unique<SstBuilder>(1 << 16));
    output_numbers.push_back(next_file_number_++);
  };
  std::string last_user_key;
  bool have_last = false;
  while (!heap.empty()) {
    const std::size_t i = heap.top();
    heap.pop();
    auto& in = inputs[i];
    const auto& [ukey, entry] = in.entries[in.pos];
    if (!have_last || ukey != last_user_key) {
      last_user_key.assign(ukey);
      have_last = true;
      if (entry.type == EntryType::kPut) {
        if (outputs.empty() ||
            outputs.back()->data_bytes() >= config_.target_sst_bytes) {
          new_output();
        }
        outputs.back()->add(ukey, entry);
      }
    }
    if (++in.pos < in.entries.size()) heap.push(i);
  }

  // Write outputs, open readers.
  std::vector<std::unique_ptr<SstReader>> new_l1;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const std::string path = file_path(output_numbers[i], "l1");
    FsResult wr = outputs[i]->write_to(fs_, t, path);
    t = wr.done;
    if (!wr.ok()) {
      enter_fatal(t, "compaction output write failed");
      return DbResult{Errno::kEIO, t};
    }
    auto open = SstReader::open(fs_, t, path);
    t = open.done;
    if (!open.ok()) {
      enter_fatal(t, "compaction output unreadable");
      return DbResult{Errno::kEIO, t};
    }
    new_l1.push_back(std::move(open.reader));
  }

  // Install the new version and delete the inputs.
  l0_.clear();
  l1_ = std::move(new_l1);
  for (const auto& path : input_paths) {
    FsResult ul = fs_.unlink(t, path);
    t = ul.done;
    if (!ul.ok()) {
      enter_fatal(t, "compaction input deletion failed");
      return DbResult{Errno::kEIO, t};
    }
  }
  return DbResult{Errno::kOk, t};
}

// ===========================================================================
// Reads

DbGetResult Db::get(sim::SimTime now, std::string_view key) {
  DbGetResult r;
  if (fatal_) {
    r.err = Errno::kEIO;
    r.done = now;
    return r;
  }
  if (immutable_ && now - flush_pending_since_ > config_.stall_grace) {
    // The flush thread has been wedged long enough that the whole store
    // is blocked behind the commit path (global stall).
    ++stats_.stalled_reads;
    r.err = Errno::kEAGAIN;
    r.done = now + config_.get_cpu;
    return r;
  }
  sim::SimTime t = now + config_.get_cpu;
  ++stats_.gets;

  LookupState ms = memtable_->get(key, &r.value);
  if (ms == LookupState::kMissing && immutable_) {
    ms = immutable_->get(key, &r.value);
  }
  if (ms == LookupState::kFound) {
    ++stats_.memtable_hits;
    r.found = true;
    r.done = t;
    stats_.bytes_read += key.size() + r.value.size();
    return r;
  }
  if (ms == LookupState::kDeleted) {
    r.done = t;
    return r;
  }

  for (auto& sst : l0_) {
    SstGetResult sr = sst->get(t, key);
    t = sr.done;
    ++stats_.sst_block_reads;
    if (sr.err != Errno::kOk) {
      r.err = sr.err;
      r.done = t;
      return r;
    }
    if (sr.state == LookupState::kFound) {
      r.found = true;
      r.value = std::move(sr.value);
      r.done = t;
      stats_.bytes_read += key.size() + r.value.size();
      return r;
    }
    if (sr.state == LookupState::kDeleted) {
      r.done = t;
      return r;
    }
  }

  // L1: at most one file can contain the key.
  auto it = std::lower_bound(
      l1_.begin(), l1_.end(), key,
      [](const std::unique_ptr<SstReader>& r2, std::string_view k) {
        return r2->largest() < k;
      });
  if (it != l1_.end() && (*it)->smallest() <= key) {
    SstGetResult sr = (*it)->get(t, key);
    t = sr.done;
    ++stats_.sst_block_reads;
    if (sr.err != Errno::kOk) {
      r.err = sr.err;
      r.done = t;
      return r;
    }
    if (sr.state == LookupState::kFound) {
      r.found = true;
      r.value = std::move(sr.value);
      stats_.bytes_read += key.size() + r.value.size();
    }
  }
  r.done = t;
  return r;
}

// ===========================================================================
// Flush / close

DbResult Db::flush(sim::SimTime now) {
  if (fatal_) return DbResult{Errno::kEIO, now};
  sim::SimTime t = now;
  if (immutable_) {
    DbResult fr = do_flush(t);
    if (!fr.ok()) return fr;
    t = fr.done;
  }
  if (memtable_->empty()) return DbResult{Errno::kOk, t};
  DbResult sw = switch_memtable(t);
  if (!sw.ok()) return sw;
  return do_flush(sw.done);
}

DbResult Db::close(sim::SimTime now) {
  if (fatal_) return DbResult{Errno::kEIO, now};
  DbResult fr = flush(now);
  if (!fr.ok()) return fr;
  FsResult sr = wal_->sync(fr.done);
  if (!sr.ok()) {
    enter_fatal(sr.done, "WAL sync on close failed");
    return DbResult{Errno::kEIO, sr.done};
  }
  return DbResult{Errno::kOk, sr.done};
}

// ===========================================================================
// Integrity verification

Db::VerifyReport Db::verify_integrity(sim::SimTime now) {
  VerifyReport report;
  sim::SimTime t = now;

  auto check_sst = [&](SstReader& sst, const char* level) {
    std::string prev_key;
    std::uint64_t prev_seq = 0;
    bool have_prev = false;
    std::uint64_t count = 0;
    std::uint64_t max_seq = 0;
    FsResult sr = sst.scan(t, [&](const BlockEntry& e) {
      const std::string_view key = e.user_key;
      if (have_prev && !internal_less(prev_key, prev_seq, key, e.sequence)) {
        report.problems.push_back(std::string(level) + " " + sst.path() +
                                  ": entries out of order near key '" +
                                  std::string(key) + "'");
      }
      if (key < sst.smallest() || sst.largest() < key) {
        report.problems.push_back(std::string(level) + " " + sst.path() +
                                  ": key '" + std::string(key) +
                                  "' outside [smallest, largest]");
      }
      prev_key.assign(key);
      prev_seq = e.sequence;
      have_prev = true;
      ++count;
      max_seq = std::max(max_seq, e.sequence);
      return;
    });
    t = sr.done;
    if (!sr.ok()) {
      report.problems.push_back(std::string(level) + " " + sst.path() +
                                ": unreadable (" + errno_name(sr.err) + ")");
      return;
    }
    if (count != sst.entry_count()) {
      report.problems.push_back(
          std::string(level) + " " + sst.path() + ": footer entry count " +
          std::to_string(sst.entry_count()) + " != scanned " +
          std::to_string(count));
    }
    if (max_seq != sst.max_sequence()) {
      report.problems.push_back(std::string(level) + " " + sst.path() +
                                ": footer max sequence mismatch");
    }
  };
  for (auto& sst : l0_) check_sst(*sst, "L0");
  for (auto& sst : l1_) check_sst(*sst, "L1");

  // L1 files must be sorted and non-overlapping.
  for (std::size_t i = 1; i < l1_.size(); ++i) {
    if (!(l1_[i - 1]->largest() < l1_[i]->smallest())) {
      report.problems.push_back("L1 files overlap: " + l1_[i - 1]->path() +
                                " and " + l1_[i]->path());
    }
  }
  report.done = t;
  return report;
}

}  // namespace deepnote::storage::kvdb
