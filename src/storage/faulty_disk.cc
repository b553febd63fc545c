#include "storage/faulty_disk.h"

#include <algorithm>
#include <cstring>

namespace deepnote::storage {

FaultyDisk::FaultyDisk(BlockDevice& inner, FaultPlan plan)
    : inner_(inner), plan_(plan), rng_(plan.seed) {}

void FaultyDisk::revive() {
  dead_ = false;
  plan_ = FaultPlan{};
  cache_.clear();  // volatile cache contents die with the power
}

bool FaultyDisk::eio_hit(DiskOpKind kind) {
  if (plan_.eio_len == 0) return false;
  if ((plan_.eio_ops & fault_ops::mask_of(kind)) == 0) return false;
  const std::uint64_t n = eio_matched_++;
  if (n < plan_.eio_start) return false;
  const std::uint64_t since = n - plan_.eio_start;
  if (plan_.eio_period == 0) return since < plan_.eio_len;
  return since % plan_.eio_period < plan_.eio_len;
}

void FaultyDisk::record_failure(DiskOpKind kind, std::uint64_t lba,
                                std::uint32_t sector_count) {
  if (!first_failure_) {
    first_failure_ = FailedOp{ops_seen_ - 1, kind, lba, sector_count};
  }
}

void FaultyDisk::cut(sim::SimTime now, std::uint64_t lba,
                     std::uint32_t sector_count,
                     std::span<const std::byte> in) {
  // A real cache may complete its queued commands in any subset before
  // the motor spins down; persisting a seeded subset in queue order is
  // one such outcome.
  for (auto& cw : cache_) {
    if (rng_.bernoulli(0.5)) {
      inner_.write(now, cw.lba,
                   static_cast<std::uint32_t>(cw.data.size() /
                                              kBlockSectorSize),
                   cw.data);
    }
  }
  cache_.clear();
  if (plan_.tear_cut_write && sector_count > 1) {
    const auto prefix = static_cast<std::uint32_t>(
        rng_.uniform_int(1, sector_count - 1));
    inner_.write(now, lba, prefix,
                 in.first(static_cast<std::size_t>(prefix) *
                          kBlockSectorSize));
  }
  dead_ = true;
}

BlockIo FaultyDisk::drain_cache(sim::SimTime now) {
  sim::SimTime t = now;
  while (!cache_.empty()) {
    CachedWrite cw = std::move(cache_.front());
    cache_.pop_front();
    BlockIo io = inner_.write(
        t, cw.lba,
        static_cast<std::uint32_t>(cw.data.size() / kBlockSectorSize),
        cw.data);
    if (!io.ok()) return io;
    t = io.complete;
  }
  return BlockIo{BlockStatus::kOk, t};
}

BlockIo FaultyDisk::read(sim::SimTime now, std::uint64_t lba,
                         std::uint32_t sector_count,
                         std::span<std::byte> out) {
  ++ops_seen_;
  if (dead_ || eio_hit(DiskOpKind::kRead)) {
    record_failure(DiskOpKind::kRead, lba, sector_count);
    return BlockIo{BlockStatus::kIoError, now};
  }
  BlockIo io = inner_.read(now, lba, sector_count, out);
  if (!io.ok()) return io;
  // Overlay cached (volatile) writes, oldest first, so reads observe the
  // device as if the cache had been written through.
  const std::uint64_t req_end = lba + sector_count;
  for (const auto& cw : cache_) {
    const std::uint64_t cw_end =
        cw.lba + cw.data.size() / kBlockSectorSize;
    const std::uint64_t lo = std::max(lba, cw.lba);
    const std::uint64_t hi = std::min(req_end, cw_end);
    if (lo >= hi) continue;
    std::memcpy(out.data() + (lo - lba) * kBlockSectorSize,
                cw.data.data() + (lo - cw.lba) * kBlockSectorSize,
                static_cast<std::size_t>(hi - lo) * kBlockSectorSize);
  }
  return io;
}

BlockIo FaultyDisk::write(sim::SimTime now, std::uint64_t lba,
                          std::uint32_t sector_count,
                          std::span<const std::byte> in) {
  ++ops_seen_;
  const std::uint64_t windex = writes_seen_++;
  if (dead_) {
    record_failure(DiskOpKind::kWrite, lba, sector_count);
    return BlockIo{BlockStatus::kIoError, now};
  }
  if (plan_.cut_at_write && windex == *plan_.cut_at_write) {
    cut(now, lba, sector_count, in);
    record_failure(DiskOpKind::kWrite, lba, sector_count);
    return BlockIo{BlockStatus::kIoError, now};
  }
  if (eio_hit(DiskOpKind::kWrite)) {
    record_failure(DiskOpKind::kWrite, lba, sector_count);
    return BlockIo{BlockStatus::kIoError, now};
  }
  if (plan_.cache_window > 0) {
    cache_.push_back(CachedWrite{lba, {in.begin(), in.end()}});
    sim::SimTime t = now;
    while (cache_.size() > plan_.cache_window) {
      CachedWrite cw = std::move(cache_.front());
      cache_.pop_front();
      BlockIo io = inner_.write(
          t, cw.lba,
          static_cast<std::uint32_t>(cw.data.size() / kBlockSectorSize),
          cw.data);
      if (!io.ok()) return io;
      t = io.complete;
    }
    return BlockIo{BlockStatus::kOk, t};
  }
  return inner_.write(now, lba, sector_count, in);
}

BlockIo FaultyDisk::erase(sim::SimTime now, std::uint64_t lba,
                          std::uint32_t sector_count) {
  ++ops_seen_;
  if (dead_) return BlockIo{BlockStatus::kIoError, now};
  return inner_.erase(now, lba, sector_count);
}

BlockIo FaultyDisk::flush(sim::SimTime now) {
  ++ops_seen_;
  if (dead_ || eio_hit(DiskOpKind::kFlush)) {
    record_failure(DiskOpKind::kFlush, 0, 0);
    return BlockIo{BlockStatus::kIoError, now};
  }
  BlockIo io = drain_cache(now);
  if (!io.ok()) return io;
  return inner_.flush(io.complete);
}

}  // namespace deepnote::storage
