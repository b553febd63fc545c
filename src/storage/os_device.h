// Kernel block-layer model: command timeout, retries, error accounting.
//
// Wraps the HDD model the way the Linux SCSI/libata stack wraps a real
// drive: each command gets a timer; on expiry the error handler resets
// the device and retries; after the retry budget the command completes
// with an I/O error ("Buffer I/O error on device sdX" — the dmesg line
// the paper reports before the Ubuntu crash).
#pragma once

#include <cstdint>

#include "hdd/drive.h"
#include "storage/block_device.h"

namespace deepnote::storage {

struct OsDeviceConfig {
  /// SCSI command timer. Linux defaults to 30 s; the calibrated value in
  /// core/scenario.cc reproduces the paper's ~80 s crash cadence together
  /// with `attempts`.
  sim::Duration command_timeout = sim::Duration::from_seconds(25.0);
  /// Total tries per command (1 initial + retries after reset).
  std::uint32_t attempts = 3;
};

struct OsDeviceStats {
  std::uint64_t commands = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t device_resets = 0;
  std::uint64_t buffer_io_errors = 0;  ///< commands that ultimately failed
};

class OsBlockDevice final : public BlockDevice {
 public:
  /// Does not take ownership of the drive.
  OsBlockDevice(hdd::Hdd& drive, OsDeviceConfig config = {});

  std::uint64_t total_sectors() const override;

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  BlockIo flush(sim::SimTime now) override;
  void prefetch() const override { drive_.prefetch(); }

  const OsDeviceStats& stats() const { return stats_; }
  const OsDeviceConfig& config() const { return config_; }
  hdd::Hdd& drive() { return drive_; }

 private:
  enum class OpKind { kRead, kWrite, kFlush };

  BlockIo run_command(sim::SimTime now, OpKind kind, std::uint64_t lba,
                      std::uint32_t sector_count, std::span<std::byte> out,
                      std::span<const std::byte> in);

  hdd::Hdd& drive_;
  OsDeviceConfig config_;
  OsDeviceStats stats_;
};

}  // namespace deepnote::storage
