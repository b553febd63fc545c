#include "storage/mem_disk.h"

#include <cstring>
#include <stdexcept>

namespace deepnote::storage {

MemDisk::MemDisk(std::uint64_t total_sectors, sim::Duration latency)
    : total_sectors_(total_sectors), latency_(latency) {}

void MemDisk::fail_after(std::uint64_t count, unsigned ops) {
  fail_after_ = count;
  fail_ops_ = ops;
  matched_ops_ = 0;
  first_failure_.reset();
}

void MemDisk::clear_fault() {
  failing_ = false;
  fail_after_ = ~0ull;
  fail_ops_ = fault_ops::kAll;
  matched_ops_ = 0;
  first_failure_.reset();
}

bool MemDisk::should_fail(DiskOpKind kind, std::uint64_t lba,
                          std::uint32_t sector_count) {
  const std::uint64_t index = ops_++;
  switch (kind) {
    case DiskOpKind::kRead: ++reads_; break;
    case DiskOpKind::kWrite: ++writes_; break;
    case DiskOpKind::kFlush: ++flushes_; break;
    // MemDisk keeps BlockDevice's no-op erase, so no erase reaches here.
    case DiskOpKind::kErase: break;
  }
  bool fail = failing_;
  if (!fail && (fail_ops_ & fault_ops::mask_of(kind)) != 0) {
    fail = matched_ops_++ >= fail_after_;
  }
  if (fail && !first_failure_) {
    first_failure_ = FailedOp{index, kind, lba, sector_count};
  }
  return fail;
}

BlockIo MemDisk::read(sim::SimTime now, std::uint64_t lba,
                      std::uint32_t sector_count, std::span<std::byte> out) {
  if (lba + sector_count > total_sectors_) {
    throw std::out_of_range("MemDisk::read beyond device");
  }
  if (out.size() != static_cast<std::size_t>(sector_count) * kBlockSectorSize) {
    throw std::invalid_argument("MemDisk::read size mismatch");
  }
  if (should_fail(DiskOpKind::kRead, lba, sector_count)) {
    return BlockIo{BlockStatus::kIoError, now + latency_};
  }
  for (std::uint32_t s = 0; s < sector_count; ++s) {
    const std::uint64_t sector = lba + s;
    const auto it = chunks_.find(sector / kSectorsPerChunk);
    auto* dst = out.data() + static_cast<std::size_t>(s) * kBlockSectorSize;
    if (it == chunks_.end()) {
      std::memset(dst, 0, kBlockSectorSize);
    } else {
      std::memcpy(dst,
                  it->second.data() +
                      (sector % kSectorsPerChunk) * kBlockSectorSize,
                  kBlockSectorSize);
    }
  }
  return BlockIo{BlockStatus::kOk, now + latency_};
}

BlockIo MemDisk::write(sim::SimTime now, std::uint64_t lba,
                       std::uint32_t sector_count,
                       std::span<const std::byte> in) {
  if (lba + sector_count > total_sectors_) {
    throw std::out_of_range("MemDisk::write beyond device");
  }
  if (in.size() != static_cast<std::size_t>(sector_count) * kBlockSectorSize) {
    throw std::invalid_argument("MemDisk::write size mismatch");
  }
  if (should_fail(DiskOpKind::kWrite, lba, sector_count)) {
    return BlockIo{BlockStatus::kIoError, now + latency_};
  }
  for (std::uint32_t s = 0; s < sector_count; ++s) {
    const std::uint64_t sector = lba + s;
    auto& chunk = chunks_[sector / kSectorsPerChunk];
    if (chunk.empty()) {
      chunk.assign(static_cast<std::size_t>(kSectorsPerChunk) *
                       kBlockSectorSize,
                   std::byte{0});
    }
    std::memcpy(chunk.data() +
                    (sector % kSectorsPerChunk) * kBlockSectorSize,
                in.data() + static_cast<std::size_t>(s) * kBlockSectorSize,
                kBlockSectorSize);
  }
  return BlockIo{BlockStatus::kOk, now + latency_};
}

BlockIo MemDisk::flush(sim::SimTime now) {
  if (should_fail(DiskOpKind::kFlush, 0, 0)) {
    return BlockIo{BlockStatus::kIoError, now + latency_};
  }
  return BlockIo{BlockStatus::kOk, now + latency_};
}

}  // namespace deepnote::storage
