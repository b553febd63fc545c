#include "cluster/hybrid.h"

#include <algorithm>
#include <stdexcept>

namespace deepnote::cluster {

const char* tier_mode_name(TierMode mode) {
  switch (mode) {
    case TierMode::kNormal: return "normal";
    case TierMode::kFlashOnly: return "flash-only";
    case TierMode::kDraining: return "draining";
  }
  return "?";
}

storage::FlashConfig HybridConfig::provisioned_flash() {
  storage::FlashConfig cfg;
  // 96 MiB: logical space (after over-provisioning) covers the default
  // 20000 x 4 KiB object span with headroom.
  cfg.blocks = 384;
  // The tier is provisioned for timing/wear realism in fleets; payload
  // bytes are not retained (same convention as cluster HDDs).
  cfg.retain_data = false;
  return cfg;
}

core::DetectorConfig HybridConfig::tier_detector() {
  // Same tuning as the fleet node detector (node.cc): fast baseline,
  // latency factor above the benign shock-blip band, error burst for the
  // hard-failure path.
  core::DetectorConfig config;
  config.baseline_alpha = 0.05;
  config.warmup_ops = 64;
  config.latency_factor = 20.0;
  return config;
}

HybridDevice::HybridDevice(storage::BlockDevice& hdd, HybridConfig config)
    : hdd_(hdd),
      config_(config),
      flash_(config.flash),
      ftl_(flash_, config.ftl),
      detector_(config.detector) {
  if (ftl_.total_sectors() > hdd_.total_sectors()) {
    throw std::invalid_argument("hybrid: flash tier larger than bulk tier");
  }
  const std::uint64_t pages = ftl_.total_sectors() / page_sectors();
  dirty_.assign((pages + 63) / 64, 0);
  page_buf_.resize(std::max<std::size_t>(
      static_cast<std::size_t>(page_sectors()) * storage::kBlockSectorSize,
      static_cast<std::size_t>(config_.probe_sectors) *
          storage::kBlockSectorSize));
}

bool HybridDevice::any_dirty(std::uint64_t lba,
                             std::uint32_t sector_count) const {
  if (dirty_count_ == 0) return false;
  const std::uint64_t first = lba / page_sectors();
  const std::uint64_t last = (lba + sector_count - 1) / page_sectors();
  for (std::uint64_t p = first; p <= last; ++p) {
    if ((dirty_[p >> 6] >> (p & 63)) & 1u) return true;
  }
  return false;
}

void HybridDevice::mark_dirty(std::uint64_t lba, std::uint32_t sector_count) {
  const std::uint64_t first = lba / page_sectors();
  const std::uint64_t last = (lba + sector_count - 1) / page_sectors();
  for (std::uint64_t p = first; p <= last; ++p) {
    const std::uint64_t bit = 1ull << (p & 63);
    if (!(dirty_[p >> 6] & bit)) {
      dirty_[p >> 6] |= bit;
      ++dirty_count_;
    }
  }
}

void HybridDevice::enter(TierMode mode, sim::SimTime now) {
  if (mode_ == mode) return;
  mode_ = mode;
  ++stats_.mode_changes;
  if (mode == TierMode::kFlashOnly) {
    probe_good_ = 0;
    next_probe_at_ = now + config_.probe_interval;
    // Re-arm: the detector must be able to alert again after drain-back.
    detector_.acknowledge();
  }
}

void HybridDevice::observe_hdd(sim::SimTime issued,
                               const storage::BlockIo& io) {
  if (io.ok()) {
    detector_.record_ok(io.complete, (io.complete - issued).seconds());
  } else {
    detector_.record_error(io.complete);
  }
  if (detector_.alerted() && mode_ != TierMode::kFlashOnly) {
    enter(TierMode::kFlashOnly, io.complete);
  }
}

void HybridDevice::maybe_probe(sim::SimTime now) {
  if (now < next_probe_at_) return;
  next_probe_at_ = now + config_.probe_interval;
  ++stats_.probes;
  // Issued as an independent command: the serving op does not wait on it.
  const storage::BlockIo io =
      hdd_.read(now, 0, config_.probe_sectors,
                std::span<std::byte>(page_buf_.data(),
                                     static_cast<std::size_t>(
                                         config_.probe_sectors) *
                                         storage::kBlockSectorSize));
  if (io.ok()) {
    if (++probe_good_ >= config_.probe_good_needed) {
      enter(TierMode::kDraining, now);
    }
  } else {
    probe_good_ = 0;
  }
}

void HybridDevice::drain_some(sim::SimTime now) {
  const std::uint64_t pages = ftl_.total_sectors() / page_sectors();
  for (std::uint32_t n = 0; n < config_.drain_batch; ++n) {
    if (dirty_count_ == 0) {
      enter(TierMode::kNormal, now);
      return;
    }
    // Advance the cursor to the next dirty page (wraps; dirty_count_ > 0
    // guarantees termination).
    while (!((dirty_[drain_cursor_ >> 6] >> (drain_cursor_ & 63)) & 1u)) {
      // Skip whole clean words when aligned.
      if ((drain_cursor_ & 63) == 0 && dirty_[drain_cursor_ >> 6] == 0) {
        drain_cursor_ += 64;
      } else {
        ++drain_cursor_;
      }
      if (drain_cursor_ >= pages) drain_cursor_ = 0;
    }
    const std::uint64_t lba = drain_cursor_ * page_sectors();
    const std::span<std::byte> buf(
        page_buf_.data(),
        static_cast<std::size_t>(page_sectors()) * storage::kBlockSectorSize);
    if (!ftl_.read(now, lba, page_sectors(), buf).ok()) return;
    // Background write-back: not charged to the serving op.
    const storage::BlockIo w = hdd_.write(now, lba, page_sectors(), buf);
    observe_hdd(now, w);
    if (!w.ok()) {
      // Attack resumed mid-drain; the page stays dirty for the next pass.
      enter(TierMode::kFlashOnly, w.complete);
      return;
    }
    dirty_[drain_cursor_ >> 6] &= ~(1ull << (drain_cursor_ & 63));
    --dirty_count_;
    ++stats_.drained_pages;
  }
  if (dirty_count_ == 0) enter(TierMode::kNormal, now);
}

storage::BlockIo HybridDevice::read(sim::SimTime now, std::uint64_t lba,
                                    std::uint32_t sector_count,
                                    std::span<std::byte> out) {
  if (!in_flash_span(lba, sector_count)) {
    const storage::BlockIo io = hdd_.read(now, lba, sector_count, out);
    observe_hdd(now, io);
    return io;
  }
  if (mode_ == TierMode::kFlashOnly) {
    ++stats_.flash_only_ops;
    maybe_probe(now);
    ++stats_.flash_reads;
    return ftl_.read(now, lba, sector_count, out);
  }
  if (mode_ == TierMode::kDraining) drain_some(now);
  if (any_dirty(lba, sector_count)) {
    // The bulk tier is stale for this object; flash is authoritative.
    ++stats_.flash_reads;
    return ftl_.read(now, lba, sector_count, out);
  }
  const storage::BlockIo io = hdd_.read(now, lba, sector_count, out);
  observe_hdd(now, io);
  if (io.ok()) {
    ++stats_.hdd_reads;
    return io;
  }
  // Absorb the HDD failure: the mirror serves the read, starting after
  // the failed attempt (detection only shortens this tail, it does not
  // change the outcome).
  ++stats_.absorbed_errors;
  ++stats_.flash_reads;
  return ftl_.read(io.complete, lba, sector_count, out);
}

storage::BlockIo HybridDevice::write(sim::SimTime now, std::uint64_t lba,
                                     std::uint32_t sector_count,
                                     std::span<const std::byte> in) {
  if (!in_flash_span(lba, sector_count)) {
    const storage::BlockIo io = hdd_.write(now, lba, sector_count, in);
    observe_hdd(now, io);
    return io;
  }
  // Flash first: the ack point. A flash failure is a real device error.
  const storage::BlockIo f = ftl_.write(now, lba, sector_count, in);
  if (!f.ok()) return f;
  if (mode_ == TierMode::kFlashOnly) {
    ++stats_.flash_only_ops;
    mark_dirty(lba, sector_count);
    maybe_probe(now);
    return f;
  }
  if (mode_ == TierMode::kDraining) drain_some(now);
  // Mirror to the bulk tier in parallel; the ack does not wait for it.
  const storage::BlockIo h = hdd_.write(now, lba, sector_count, in);
  observe_hdd(now, h);
  if (!h.ok()) {
    ++stats_.absorbed_errors;
    mark_dirty(lba, sector_count);
  }
  return f;
}

void HybridDevice::prefetch() const {
  const char* first = reinterpret_cast<const char*>(this);
  for (std::size_t at = 0; at < sizeof(HybridDevice); at += 64) {
    __builtin_prefetch(first + at);
  }
  // An object not aligned to a line ends on one more.
  __builtin_prefetch(first + sizeof(HybridDevice) - 1);
  hdd_.prefetch();
}

storage::BlockIo HybridDevice::flush(sim::SimTime now) {
  const storage::BlockIo f = ftl_.flush(now);
  if (mode_ != TierMode::kFlashOnly) {
    // Data is already durable on flash, so a bulk-tier flush failure is
    // absorbed like a mirrored write failure.
    const storage::BlockIo h = hdd_.flush(now);
    observe_hdd(now, h);
  }
  return f;
}

}  // namespace deepnote::cluster
