// Simulated NAND flash device: erase-block geometry, program/erase
// latency asymmetry, per-block wear counters.
//
// The model enforces the NAND programming discipline the FTL (ftl.h)
// is built around: a page may be programmed once after each erase of
// its block, erases work on whole blocks only, and erased bytes read
// back 0xFF. Violations complete with an I/O error and are counted, so
// a layering bug shows up as a loud test failure instead of silently
// corrupting state.
//
// Acoustic interference is an HDD-specific failure mode — there is no
// spinning medium here to disturb — which is exactly why the hybrid
// cluster node (cluster/hybrid.h) uses this device to ride through the
// attacks that park every HDD head in the pod.
//
// Like the HDD model, `retain_data = false` keeps timing, wear and
// discipline state but no payload bytes: the cluster serves
// timing/availability-only traffic from thousands of these.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.h"

namespace deepnote::storage {

struct FlashConfig {
  std::uint32_t page_sectors = 8;      ///< 4 KiB program unit
  std::uint32_t pages_per_block = 64;  ///< 256 KiB erase block
  std::uint32_t blocks = 256;          ///< 64 MiB device

  /// NAND latency asymmetry: reads are tens of microseconds, programs
  /// hundreds, erases milliseconds — per page / page / block.
  sim::Duration read_latency = sim::Duration::from_micros(60);
  sim::Duration program_latency = sim::Duration::from_micros(350);
  sim::Duration erase_latency = sim::Duration::from_millis(2.0);

  /// Rated program/erase endurance per block (consumer TLC ballpark);
  /// feeds the SMART media-wearout attribute.
  std::uint32_t rated_erase_cycles = 3000;

  /// false: timing/wear/discipline only, no payload bytes (fleet mode).
  bool retain_data = true;
};

struct FlashStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t block_erases = 0;
  /// Programming-discipline violations (re-program without erase,
  /// unaligned erase): layering bugs, not environmental faults.
  std::uint64_t discipline_errors = 0;
};

class FlashDevice final : public BlockDevice {
 public:
  explicit FlashDevice(FlashConfig config = {});

  const FlashConfig& config() const { return config_; }
  std::uint64_t total_sectors() const override {
    return static_cast<std::uint64_t>(config_.blocks) * block_sectors();
  }
  std::uint32_t block_sectors() const {
    return config_.page_sectors * config_.pages_per_block;
  }

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  /// Programs are persistent when the command completes (no volatile
  /// write cache in the model), so the barrier is free.
  BlockIo flush(sim::SimTime now) override;
  /// Whole-block erase: `lba` block-aligned, `sector_count` one block.
  BlockIo erase(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count) override;

  const FlashStats& stats() const { return stats_; }
  std::uint32_t erase_count(std::uint32_t block) const {
    return erase_counts_.at(block);
  }
  /// Wear-leveling health: the spread a wear-aware allocator bounds.
  std::uint32_t min_erase_count() const;
  std::uint32_t max_erase_count() const;
  /// Mean completed program/erase cycles across all blocks.
  double mean_erase_count() const;

 private:
  bool page_programmed(std::uint64_t page) const {
    return (programmed_[page >> 6] >> (page & 63)) & 1u;
  }
  void set_page_programmed(std::uint64_t page) {
    programmed_[page >> 6] |= 1ull << (page & 63);
  }

  FlashConfig config_;
  FlashStats stats_;
  std::vector<std::uint64_t> programmed_;  ///< one bit per page
  std::vector<std::uint32_t> erase_counts_;
  /// Payload bytes per block, allocated on first program (retain mode).
  std::vector<std::vector<std::byte>> data_;
};

}  // namespace deepnote::storage
