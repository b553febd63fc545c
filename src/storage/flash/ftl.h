// Page-mapped flash translation layer: presents a plain BlockDevice on
// top of the NAND model (flash_device.h), hiding the programming
// discipline from callers the way an SSD controller does.
//
// Writes never re-program in place. Each host page lands on the next
// free page of the open write block; the previous physical page for
// that logical page becomes stale. New write blocks come from the
// wear-aware allocator: the free block with the LOWEST erase count
// (ties to the lowest index), so hot logical pages are spread across
// the whole device and the max-min erase spread stays bounded — the
// property the wear-leveling distribution test pins down. When free
// blocks run low, garbage collection picks the closed block with the
// fewest valid pages, relocates them, and erases it.
//
// The logical space is smaller than the physical space by
// `reserved_blocks` (over-provisioning), which guarantees GC can always
// find a victim with stale pages.
//
// erase() is a TRIM hint: fully-covered logical pages are unmapped (their
// physical pages become stale for GC) with no device command issued.
//
// The mapping tables live in controller RAM (volatile): this layer is
// for wear and timing realism, not crash consistency — nothing persists
// the map, so a power cut loses it.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/flash/flash_device.h"

namespace deepnote::storage {

struct FtlConfig {
  /// Physical blocks kept out of the logical capacity (over-provision).
  std::uint32_t reserved_blocks = 8;
  /// Run GC when the free-block pool drops below this.
  std::uint32_t gc_free_threshold = 2;
};

struct FtlStats {
  std::uint64_t host_page_reads = 0;
  std::uint64_t host_page_writes = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t relocated_pages = 0;
  std::uint64_t trimmed_pages = 0;
};

class Ftl final : public BlockDevice {
 public:
  /// Does not take ownership of `device`. All tables are sized here;
  /// the I/O paths allocate nothing.
  Ftl(FlashDevice& device, FtlConfig config = {});

  std::uint64_t total_sectors() const override {
    return static_cast<std::uint64_t>(logical_pages_) * page_sectors();
  }

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  BlockIo flush(sim::SimTime now) override;
  BlockIo erase(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count) override;

  const FtlStats& stats() const { return stats_; }
  const FlashDevice& device() const { return device_; }
  std::uint32_t free_blocks() const { return free_count_; }
  /// Blocks in the open (being written) state: at most one.
  std::uint32_t open_blocks() const;

 private:
  static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;
  enum class BlockState : std::uint8_t { kFree, kOpen, kClosed };

  std::uint32_t page_sectors() const { return device_.config().page_sectors; }
  std::uint32_t pages_per_block() const {
    return device_.config().pages_per_block;
  }

  /// Lowest-erase-count free block, ties to the lowest index;
  /// kUnmapped when the pool is empty.
  std::uint32_t pick_free_block() const;
  /// Closed block with the fewest valid pages; kUnmapped if none.
  std::uint32_t pick_gc_victim() const;
  /// Ensure the open block has a free page, collecting garbage first
  /// when the pool is low. Returns false only on device error.
  bool ensure_open_block(sim::SimTime& now);
  bool collect_garbage(sim::SimTime& now);
  /// Program `buf` (one full page) as the new home of logical page
  /// `lp`, invalidating its previous physical page if mapped.
  bool place_page(sim::SimTime& now, std::uint32_t lp,
                  std::span<const std::byte> buf);
  void invalidate(std::uint32_t phys);

  FlashDevice& device_;
  FtlConfig config_;
  FtlStats stats_;

  std::uint32_t logical_pages_ = 0;
  bool in_gc_ = false;  ///< relocation must not re-enter GC
  std::uint32_t open_block_ = kUnmapped;
  std::uint32_t open_next_ = 0;  ///< next free page index in open block
  std::uint32_t free_count_ = 0;
  std::vector<std::uint32_t> map_;         ///< logical page -> physical page
  std::vector<std::uint32_t> rmap_;        ///< physical page -> logical page
  std::vector<std::uint16_t> valid_count_; ///< per block
  std::vector<BlockState> state_;          ///< per block
  /// Staging for a sub-page host write's read-modify-write only; a
  /// whole page programs straight from the caller's span.
  std::vector<std::byte> page_buf_;
  /// GC relocation scratch. Separate from page_buf_: ensure_open_block
  /// inside place_page can trigger GC while page_buf_ holds pending
  /// host data, and relocation must not clobber it.
  std::vector<std::byte> gc_buf_;
};

}  // namespace deepnote::storage
