// Attack-aware hybrid storage node: flash tier in front of an HDD.
//
// The paper's attack parks every head in the insonified pod; a pure-HDD
// node has nothing to serve from. A hybrid node keeps a provisioned
// flash mirror of its object space (storage/flash) next to the HDD and
// moves between three tier modes:
//
//   kNormal     writes land on flash first (the ack point — a WAL-style
//               durability tier) and are mirrored to the HDD; reads are
//               served by the HDD bulk tier with flash as fallback, so
//               an HDD failure is absorbed, not surfaced.
//   kFlashOnly  entered when the node's own tier detector alerts on HDD
//               outcomes (the acoustic signature: timeouts + error
//               bursts). The HDD is bypassed entirely — writes go to
//               flash only and are marked dirty; low-rate probes watch
//               for the HDD coming back.
//   kDraining   after enough consecutive good probes: normal serving
//               resumes and each op also writes a batch of dirty pages
//               back to the HDD. When the last dirty page drains the
//               node returns to kNormal; a probe or drain failure
//               (attack resumed) falls straight back to kFlashOnly.
//
// Availability through an attack therefore does not depend on detection
// time at all — pre-detection HDD failures already fall back to flash.
// Detection only moves the HDD timeout penalty off the serving path, so
// it shapes tail latency, not availability.
//
// Mirror addressing is literal: the engine's dense object LBAs are
// used unchanged on the flash translation layer, whose logical space
// must cover the object span. Probes and drain writes are issued as
// independent background commands — their latency is the HDD's problem,
// not the serving op's.
//
// All state is preallocated; the serving path allocates nothing, and a
// node's device is only ever driven by its own engine shard, so fleets
// stay byte-identical at any DEEPNOTE_JOBS.
#pragma once

#include <cstdint>
#include <vector>

#include "core/detector.h"
#include "storage/flash/ftl.h"

namespace deepnote::cluster {

enum class TierMode : std::uint8_t {
  kNormal = 0,
  kFlashOnly = 1,
  kDraining = 2,
};

const char* tier_mode_name(TierMode mode);

struct HybridConfig {
  /// Flash tier geometry. The default covers the default balancer object
  /// span (20000 x 4 KiB) with over-provisioning to spare.
  storage::FlashConfig flash = provisioned_flash();
  storage::FtlConfig ftl;
  /// Tier detector over HDD outcomes; the acoustic error burst trips it
  /// with no warmup.
  core::DetectorConfig detector = tier_detector();
  /// Background HDD probe cadence while in kFlashOnly.
  sim::Duration probe_interval = sim::Duration::from_millis(250.0);
  std::uint32_t probe_good_needed = 8;  ///< consecutive OKs to start drain
  std::uint32_t probe_sectors = 8;
  std::uint32_t drain_batch = 4;  ///< dirty pages written back per op

  static storage::FlashConfig provisioned_flash();
  static core::DetectorConfig tier_detector();
};

struct HybridStats {
  std::uint64_t hdd_reads = 0;        ///< reads served by the bulk tier
  std::uint64_t flash_reads = 0;      ///< reads served by the flash tier
  std::uint64_t absorbed_errors = 0;  ///< HDD failures hidden by flash
  std::uint64_t flash_only_ops = 0;
  std::uint64_t probes = 0;
  std::uint64_t drained_pages = 0;
  std::uint64_t mode_changes = 0;
};

class HybridDevice final : public storage::BlockDevice {
 public:
  /// Does not take ownership of `hdd`. Owns the flash tier.
  HybridDevice(storage::BlockDevice& hdd, HybridConfig config = {});

  HybridDevice(const HybridDevice&) = delete;
  HybridDevice& operator=(const HybridDevice&) = delete;

  /// The bulk tier defines the addressable space; the flash logical
  /// space must cover the object span actually addressed.
  std::uint64_t total_sectors() const override {
    return hdd_.total_sectors();
  }

  storage::BlockIo read(sim::SimTime now, std::uint64_t lba,
                        std::uint32_t sector_count,
                        std::span<std::byte> out) override;
  storage::BlockIo write(sim::SimTime now, std::uint64_t lba,
                         std::uint32_t sector_count,
                         std::span<const std::byte> in) override;
  storage::BlockIo flush(sim::SimTime now) override;
  /// Starts loading this object's lines (the FTL and NAND model are
  /// members) and forwards to the bulk tier. It reads only `hdd_`, next
  /// to the vtable pointer on the object's first line.
  void prefetch() const override;

  TierMode mode() const { return mode_; }
  const HybridStats& stats() const { return stats_; }
  std::uint64_t dirty_pages() const { return dirty_count_; }
  const storage::Ftl& ftl() const { return ftl_; }
  const storage::FlashDevice& flash() const { return flash_; }
  const core::AttackDetector& tier_detector() const { return detector_; }

 private:
  std::uint32_t page_sectors() const { return config_.flash.page_sectors; }
  bool in_flash_span(std::uint64_t lba, std::uint32_t sector_count) const {
    return lba + sector_count <= ftl_.total_sectors();
  }
  bool any_dirty(std::uint64_t lba, std::uint32_t sector_count) const;
  void mark_dirty(std::uint64_t lba, std::uint32_t sector_count);
  void enter(TierMode mode, sim::SimTime now);
  /// Feed an HDD outcome to the tier detector; flips to kFlashOnly on
  /// alert.
  void observe_hdd(sim::SimTime issued, const storage::BlockIo& io);
  /// Background probe while kFlashOnly (rate-limited by probe_interval).
  void maybe_probe(sim::SimTime now);
  /// Write back up to drain_batch dirty pages while kDraining.
  void drain_some(sim::SimTime now);

  storage::BlockDevice& hdd_;
  HybridConfig config_;
  storage::FlashDevice flash_;
  storage::Ftl ftl_;
  core::AttackDetector detector_;
  HybridStats stats_;

  TierMode mode_ = TierMode::kNormal;
  std::vector<std::uint64_t> dirty_;  ///< bitmap over flash logical pages
  std::uint64_t dirty_count_ = 0;
  std::uint64_t drain_cursor_ = 0;  ///< next logical page to scan
  sim::SimTime next_probe_at_ = sim::SimTime::zero();
  std::uint32_t probe_good_ = 0;
  std::vector<std::byte> page_buf_;  ///< drain-path scratch
};

}  // namespace deepnote::cluster
