// Minimal RAID-1 layer over BlockDevices.
//
// Exists to quantify a deployment consequence of the acoustic attack:
// redundancy assumes *independent* drive failures, but an attack on a
// shared enclosure kills all members at once (see `bench/reproduce rack`).
//
// Raid1Device is a mirror: writes go to every member (command completion
// = slowest member), reads are served by the first member that answers,
// failing over on error. The array stays available as long as one member
// serves.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.h"

namespace deepnote::storage {

struct RaidStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_failovers = 0;   ///< mirror reads served by a backup
  std::uint64_t degraded_writes = 0;  ///< mirror writes with failed members
  std::uint64_t failed_ios = 0;
};

class Raid1Device final : public BlockDevice {
 public:
  /// Does not take ownership; all members must be the same size (the
  /// array exposes the smallest). Like md, the array ejects a member
  /// after `eject_after_errors` consecutive failed commands and stops
  /// sending it I/O (a failed-but-acknowledged write no longer paces the
  /// array).
  explicit Raid1Device(std::vector<BlockDevice*> members,
                       std::uint32_t eject_after_errors = 2);

  std::uint64_t total_sectors() const override { return total_sectors_; }

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  BlockIo flush(sim::SimTime now) override;

  const RaidStats& stats() const { return stats_; }
  std::size_t members() const { return members_.size(); }
  std::size_t active_members() const;
  bool member_failed(std::size_t i) const { return failed_.at(i); }
  /// Re-admit an ejected member (post-repair rebuild is out of scope;
  /// contents are assumed resynced).
  void readmit(std::size_t i);

 private:
  void note_result(std::size_t member, bool ok);

  std::vector<BlockDevice*> members_;
  std::uint64_t total_sectors_;
  std::uint32_t eject_after_errors_;
  std::vector<bool> failed_;
  std::vector<std::uint32_t> consecutive_errors_;
  RaidStats stats_;
};

}  // namespace deepnote::storage
