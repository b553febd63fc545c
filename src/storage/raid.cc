#include "storage/raid.h"

#include <algorithm>
#include <stdexcept>

namespace deepnote::storage {

Raid1Device::Raid1Device(std::vector<BlockDevice*> members,
                         std::uint32_t eject_after_errors)
    : members_(std::move(members)),
      eject_after_errors_(std::max<std::uint32_t>(eject_after_errors, 1)) {
  if (members_.empty()) {
    throw std::invalid_argument("raid1: needs at least one member");
  }
  total_sectors_ = members_.front()->total_sectors();
  for (auto* m : members_) {
    total_sectors_ = std::min(total_sectors_, m->total_sectors());
  }
  failed_.assign(members_.size(), false);
  consecutive_errors_.assign(members_.size(), 0);
}

std::size_t Raid1Device::active_members() const {
  std::size_t n = 0;
  for (bool f : failed_) {
    if (!f) ++n;
  }
  return n;
}

void Raid1Device::readmit(std::size_t i) {
  failed_.at(i) = false;
  consecutive_errors_.at(i) = 0;
}

void Raid1Device::note_result(std::size_t member, bool ok) {
  if (ok) {
    consecutive_errors_[member] = 0;
    return;
  }
  if (++consecutive_errors_[member] >= eject_after_errors_) {
    failed_[member] = true;
  }
}

BlockIo Raid1Device::read(sim::SimTime now, std::uint64_t lba,
                          std::uint32_t sector_count,
                          std::span<std::byte> out) {
  ++stats_.reads;
  sim::SimTime t = now;
  bool first_choice = true;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i]) continue;
    const BlockIo io = members_[i]->read(t, lba, sector_count, out);
    note_result(i, io.ok());
    if (io.ok()) {
      if (!first_choice) ++stats_.read_failovers;
      return io;
    }
    // Failover: the next member is tried after the failure completes
    // (the md layer learns of the error first).
    t = io.complete;
    first_choice = false;
  }
  ++stats_.failed_ios;
  return BlockIo{BlockStatus::kIoError, t};
}

BlockIo Raid1Device::write(sim::SimTime now, std::uint64_t lba,
                           std::uint32_t sector_count,
                           std::span<const std::byte> in) {
  ++stats_.writes;
  // Mirrored writes are issued concurrently to the active members; the
  // array acknowledges when the slowest active member finishes. A member
  // failure degrades the array but the write succeeds while at least one
  // member took it.
  sim::SimTime done = now;
  std::size_t ok_members = 0;
  bool any_sent = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i]) continue;
    any_sent = true;
    const BlockIo io = members_[i]->write(now, lba, sector_count, in);
    done = sim::max(done, io.complete);
    note_result(i, io.ok());
    if (io.ok()) ++ok_members;
  }
  if (!any_sent || ok_members == 0) {
    ++stats_.failed_ios;
    return BlockIo{BlockStatus::kIoError, done};
  }
  if (ok_members < members_.size()) ++stats_.degraded_writes;
  return BlockIo{BlockStatus::kOk, done};
}

BlockIo Raid1Device::flush(sim::SimTime now) {
  sim::SimTime done = now;
  std::size_t ok_members = 0;
  bool any_sent = false;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (failed_[i]) continue;
    any_sent = true;
    const BlockIo io = members_[i]->flush(now);
    done = sim::max(done, io.complete);
    note_result(i, io.ok());
    if (io.ok()) ++ok_members;
  }
  if (!any_sent || ok_members == 0) {
    ++stats_.failed_ios;
    return BlockIo{BlockStatus::kIoError, done};
  }
  return BlockIo{BlockStatus::kOk, done};
}

}  // namespace deepnote::storage
