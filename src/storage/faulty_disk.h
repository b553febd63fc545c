// FaultyDisk: a deterministic fault-injection layer over any BlockDevice.
//
// The faults it models are the ones an acoustic attack (and any power
// event) produces at the block layer:
//
//  * power cut at the K-th write — the write is lost, the device goes
//    dead, every later command fails (littlefs-style exhaustive
//    exploration enumerates K over the whole workload);
//  * torn write — the cut write persists only a sector-aligned prefix,
//    as a platter loses power mid-track;
//  * write-cache reorder — writes sit volatile in a bounded cache until
//    a flush; a cut persists only a seeded subset of the cached writes,
//    so anything the protocol did not put behind a barrier can vanish;
//  * transient EIO bursts — periodic windows of failed commands
//    mimicking the attack cadence, without killing the device.
//
// Every randomized choice (torn prefix length, which cached writes
// survive) derives from FaultPlan::seed, so a schedule replays exactly
// from its (seed, index) pair. See fault_harness.h for the exploration
// driver that enumerates schedules.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/rng.h"
#include "storage/block_device.h"

namespace deepnote::storage {

/// Everything a single fault schedule needs; value type, cheap to copy.
struct FaultPlan {
  /// Seed for all randomized choices in this plan (torn prefix length,
  /// cache-survivor subset). Derive with sim::trial_seed(base, index).
  std::uint64_t seed = 0;

  /// Power-cut at the Nth write attempt (0-based) seen by the device.
  /// The cut write fails; the device is dead afterwards until revive().
  std::optional<std::uint64_t> cut_at_write;

  /// When cut: persist a seeded sector-aligned prefix of the cut write
  /// (0 <= prefix < sector_count) instead of dropping it whole.
  bool tear_cut_write = false;

  /// >0: emulate a volatile write cache of this many entries. Writes are
  /// held back (visible to reads, invisible to the backing device) until
  /// a flush drains them in order; overflow drains the oldest entry. A
  /// power cut persists a seeded subset of the cached writes, in order.
  std::uint32_t cache_window = 0;

  /// Transient EIO bursts over matching operations (eio_ops mask,
  /// counted per matching op): ops [eio_start, eio_start + eio_len)
  /// fail, then every eio_period ops the burst repeats (period 0 = one
  /// burst only). Transient failures do not kill the device.
  std::uint64_t eio_start = 0;
  std::uint64_t eio_len = 0;
  std::uint64_t eio_period = 0;
  unsigned eio_ops = fault_ops::kAll;

  bool any_fault() const {
    return cut_at_write.has_value() || eio_len > 0 || cache_window > 0;
  }
};

class FaultyDisk final : public BlockDevice {
 public:
  /// Does not take ownership of `inner`. The plan is armed immediately.
  FaultyDisk(BlockDevice& inner, FaultPlan plan = {});

  std::uint64_t total_sectors() const override {
    return inner_.total_sectors();
  }

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  BlockIo flush(sim::SimTime now) override;
  /// Forwarded to the inner device until the cut fires, then fails like
  /// every other command. Erases are not a fault target.
  BlockIo erase(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count) override;

  /// True once the power cut fired; every command fails until revive().
  bool dead() const { return dead_; }
  /// "Reboot": clear the dead state and the fault plan. Cached writes
  /// that were not persisted by the cut are gone — only the backing
  /// device's contents survive, exactly like a real power cycle.
  void revive();

  /// Write attempts seen so far (including failed ones) — the exhaustive
  /// explorer sizes its schedule space from a benign run's count.
  std::uint64_t writes_seen() const { return writes_seen_; }
  std::uint64_t ops_seen() const { return ops_seen_; }
  /// The first command the plan failed, for shrink reports.
  const std::optional<FailedOp>& first_failure() const {
    return first_failure_;
  }

 private:
  struct CachedWrite {
    std::uint64_t lba;
    std::vector<std::byte> data;
  };

  bool eio_hit(DiskOpKind kind);
  void record_failure(DiskOpKind kind, std::uint64_t lba,
                      std::uint32_t sector_count);
  /// The power event: persist the seeded cache subset (and torn prefix
  /// of `in`, if tearing), then go dead.
  void cut(sim::SimTime now, std::uint64_t lba, std::uint32_t sector_count,
           std::span<const std::byte> in);
  BlockIo drain_cache(sim::SimTime now);

  BlockDevice& inner_;
  FaultPlan plan_;
  sim::Rng rng_;
  bool dead_ = false;
  std::uint64_t writes_seen_ = 0;
  std::uint64_t ops_seen_ = 0;
  std::uint64_t eio_matched_ = 0;
  std::deque<CachedWrite> cache_;
  std::optional<FailedOp> first_failure_;
};

}  // namespace deepnote::storage
