#include "hdd/drive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace deepnote::hdd {
namespace {

constexpr double kInfinite = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kUnitBytes = 4096;  // media scheduling granularity
constexpr std::uint32_t kUnitSectors = kUnitBytes / kSectorSize;

}  // namespace

Hdd::Hdd(HddConfig config)
    : config_(std::move(config)),
      servo_(config_.servo),
      rng_(config_.rng_seed),
      durable_(config_.geometry.total_sectors()),
      cache_overlay_(config_.geometry.total_sectors()) {}

// ---------------------------------------------------------------------------
// Servo-aware media timing.

double Hdd::expected_media_unit_s(AccessKind kind, std::uint64_t lba) const {
  const double rate = config_.geometry.media_rate_bps(lba);
  const double t_xfer = kUnitBytes / rate;
  const double p =
      servo_.attempt_success_probability(servo_state_, kind, t_xfer);
  if (p <= 0.0) return kInfinite;
  const double t_rev = config_.geometry.revolution_s();
  return t_xfer + (1.0 / p - 1.0) * t_rev;
}

std::optional<double> Hdd::sample_media_time(AccessKind kind,
                                             std::uint64_t lba,
                                             std::uint32_t sector_count,
                                             std::uint32_t* retries_out) {
  const double rate = config_.geometry.media_rate_bps(lba);
  const double t_rev = config_.geometry.revolution_s();
  const double unit_xfer = kUnitBytes / rate;
  const double p =
      servo_.attempt_success_probability(servo_state_, kind, unit_xfer);
  if (p <= 0.0) return std::nullopt;

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(sector_count) * kSectorSize;
  double total = static_cast<double>(bytes) / rate;
  if (p >= 1.0) return total;

  const std::uint32_t units =
      static_cast<std::uint32_t>((sector_count + kUnitSectors - 1) /
                                 kUnitSectors);
  const double log1mp = std::log1p(-p);
  std::uint32_t total_retries = 0;
  for (std::uint32_t u = 0; u < units; ++u) {
    // Geometric number of failed attempts before success.
    double uni;
    do {
      uni = rng_.next_double();
    } while (uni <= 0.0);
    const double k_real = std::floor(std::log(uni) / log1mp);
    const auto k = static_cast<std::uint32_t>(
        std::min(k_real, static_cast<double>(config_.max_media_retries + 1)));
    if (k > config_.max_media_retries) {
      // Retry budget exhausted: the command fails after the budget burns.
      total += static_cast<double>(config_.max_media_retries) * t_rev;
      stats_.media_retries += config_.max_media_retries;
      if (retries_out) *retries_out += config_.max_media_retries;
      return std::nullopt;  // caller reports kMediaError using this signal
    }
    total += static_cast<double>(k) * t_rev;
    total_retries += k;
  }
  stats_.media_retries += total_retries;
  if (retries_out) *retries_out += total_retries;
  return total;
}

double Hdd::seek_time_s(std::uint32_t from_cyl, std::uint32_t to_cyl) const {
  if (from_cyl == to_cyl) return 0.0;
  const double dist = std::abs(static_cast<double>(from_cyl) -
                               static_cast<double>(to_cyl));
  const double frac = dist / config_.geometry.total_cylinders();
  return config_.seek_track_to_track_s +
         (config_.seek_full_stroke_s - config_.seek_track_to_track_s) *
             std::sqrt(frac);
}

double Hdd::media_availability() const {
  if (servo_state_.parked) return 0.0;
  const double lambda = servo_state_.false_trip_rate_hz;
  if (lambda <= 0.0) return 1.0;
  return 1.0 / (1.0 + lambda * servo_.config().park_resume_s);
}

// ---------------------------------------------------------------------------
// Lazy background state: cache drain, prefetch fill, shock false trips.

void Hdd::advance(sim::SimTime now) {
  if (now <= bg_cursor_) return;
  const double resume_s = servo_.config().park_resume_s;
  while (bg_cursor_ < now) {
    // Media busy (foreground op or park window): skip ahead, no accrual.
    if (media_free_at_ > bg_cursor_) {
      bg_cursor_ = sim::min(media_free_at_, now);
      continue;
    }
    // Shock-sensor false trip?
    const double lambda = servo_state_.false_trip_rate_hz;
    sim::SimTime trip = sim::SimTime::infinity();
    if (lambda > 0.0 && !servo_state_.parked) {
      trip = next_trip_;
      if (trip <= bg_cursor_) {
        // Trip fires: media parked for one resume cycle.
        media_free_at_ = bg_cursor_ + sim::Duration::from_seconds(resume_s);
        ++stats_.shock_parks;
        next_trip_ = media_free_at_ +
                     sim::Duration::from_seconds(rng_.exponential(1.0 / lambda));
        continue;
      }
    }
    const sim::SimTime seg_end = sim::min(now, trip);
    const double dt = (seg_end - bg_cursor_).seconds();
    if (dt > 0.0) {
      const bool draining = !cache_fifo_.empty();
      const bool prefetching = prefetch_active_;
      const double share = (draining && prefetching) ? 0.5 : 1.0;
      if (draining) {
        const double unit_s =
            expected_media_unit_s(AccessKind::kWrite, cache_fifo_.front().lba);
        if (std::isfinite(unit_s)) {
          drain_credit_bytes_ += dt * share * kUnitBytes / unit_s;
          drain_fully(seg_end);
        }
      }
      if (prefetching) {
        const double unit_s =
            expected_media_unit_s(AccessKind::kRead, prefetch_next_lba_);
        if (std::isfinite(unit_s)) {
          prefetch_bytes_ = std::min(
              static_cast<double>(config_.lookahead_buffer_bytes),
              prefetch_bytes_ + dt * share * kUnitBytes / unit_s);
        }
      }
    }
    bg_cursor_ = seg_end;
  }
}

void Hdd::pop_front_to_media() {
  auto& front = cache_fifo_.front();
  if (config_.retain_data) {
    durable_.write(front.lba, front.sector_count,
                   std::span<const std::byte>(front.data));
  }
  // Only a drive that retains data counts pending sectors; skip the
  // lookups on a timing-only one.
  if (!pending_counts_.empty()) {
    for (std::uint32_t s = 0; s < front.sector_count; ++s) {
      auto it = pending_counts_.find(front.lba + s);
      if (it != pending_counts_.end() && --it->second == 0) {
        pending_counts_.erase(it);
      }
    }
  }
  cache_bytes_ -= front.sector_count * kSectorSize;
  cache_fifo_.pop_front();
}

void Hdd::drain_fully(sim::SimTime /*now*/) {
  while (!cache_fifo_.empty()) {
    const double bytes =
        static_cast<double>(cache_fifo_.front().sector_count) * kSectorSize;
    if (drain_credit_bytes_ < bytes) break;
    drain_credit_bytes_ -= bytes;
    pop_front_to_media();
  }
  if (cache_fifo_.empty()) drain_credit_bytes_ = 0.0;  // no banking
}

// ---------------------------------------------------------------------------
// Excitation updates.

void Hdd::set_excitation(sim::SimTime now,
                         const structure::DriveExcitation& excitation) {
  advance(now);
  const ServoState next = servo_.evaluate(excitation);
  const bool was_blocked = servo_state_.parked;
  servo_state_ = next;
  if (next.false_trip_rate_hz > 0.0) {
    next_trip_ = now + sim::Duration::from_seconds(
                           rng_.exponential(1.0 / next.false_trip_rate_hz));
  } else {
    next_trip_ = sim::SimTime::infinity();
  }
  // A drive whose heads were parked recovers shortly after the disturbance
  // ends (unpark + recalibrate); any stuck recovery state is abandoned.
  if (was_blocked && !next.parked) {
    const auto recover =
        now + sim::Duration::from_seconds(servo_.config().park_resume_s);
    media_free_at_ = sim::min(media_free_at_, recover);
    interface_free_at_ = sim::min(interface_free_at_, recover);
  }
}

void Hdd::reset(sim::SimTime now) {
  advance(now);
  constexpr double kResetRecoveryS = 0.05;
  const auto ready = now + sim::Duration::from_seconds(kResetRecoveryS);
  media_free_at_ = sim::min(media_free_at_, ready);
  interface_free_at_ = sim::min(interface_free_at_, ready);
  prefetch_active_ = false;
  prefetch_bytes_ = 0.0;
}

// ---------------------------------------------------------------------------
// Host commands.

IoResult Hdd::read(sim::SimTime now, std::uint64_t lba,
                   std::uint32_t sector_count, std::span<std::byte> out,
                   sim::SimTime deadline) {
  advance(now);
  ++stats_.reads;

  const sim::SimTime start = sim::max(now, interface_free_at_);
  const auto overhead =
      sim::Duration::from_seconds(config_.command_overhead_read_s);

  if (servo_state_.parked) {
    ++stats_.hung_commands;
    return IoResult{IoStatus::kHung, sim::SimTime::infinity(), 0};
  }

  const bool sequential =
      prefetch_active_
          ? (lba >= last_read_end_lba_ &&
             lba - last_read_end_lba_ <= config_.sequential_window_sectors)
          : (last_read_end_lba_ != 0 && lba == last_read_end_lba_);

  IoResult result;
  std::uint32_t retries = 0;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(sector_count) * kSectorSize;

  auto hung = [&]() {
    ++stats_.hung_commands;
    return IoResult{IoStatus::kHung, sim::SimTime::infinity(), retries};
  };
  auto media_error = [&](double burn_s) {
    ++stats_.media_errors;
    const sim::SimTime done =
        sim::max(start + overhead, media_free_at_) +
        sim::Duration::from_seconds(burn_s);
    if (done > deadline) return hung();
    media_free_at_ = done;
    interface_free_at_ = done;
    return IoResult{IoStatus::kMediaError, done, retries};
  };

  if (sequential) {
    const bool was_prefetching = prefetch_active_;
    const double bytes_f = static_cast<double>(bytes);
    if (was_prefetching && prefetch_bytes_ >= bytes_f) {
      // Look-ahead hit: interface cost only.
      const sim::SimTime done = start + overhead;
      if (done > deadline) return hung();
      prefetch_bytes_ -= bytes_f;
      prefetch_next_lba_ = lba + sector_count;
      result.complete = done;
      interface_free_at_ = done;
    } else {
      // Buffer dry (or prefetch starting): block on the media for the
      // deficit.
      const double avail = was_prefetching ? prefetch_bytes_ : 0.0;
      const auto deficit_bytes =
          static_cast<std::uint64_t>(bytes_f - avail);
      const auto deficit_sectors = static_cast<std::uint32_t>(
          (deficit_bytes + kSectorSize - 1) / kSectorSize);
      auto media = sample_media_time(AccessKind::kRead, lba, deficit_sectors,
                                     &retries);
      if (!media.has_value()) {
        const double p = servo_.attempt_success_probability(
            servo_state_, AccessKind::kRead, 1e-5);
        if (p <= 0.0) return hung();
        return media_error(config_.max_media_retries *
                           config_.geometry.revolution_s());
      }
      const sim::SimTime media_begin =
          sim::max(start + overhead, media_free_at_);
      const sim::SimTime done =
          media_begin + sim::Duration::from_seconds(*media);
      if (done > deadline) return hung();
      prefetch_active_ = true;
      prefetch_bytes_ = 0.0;
      prefetch_next_lba_ = lba + sector_count;
      result.complete = done;
      media_free_at_ = done;
      interface_free_at_ = done;
    }
  } else {
    // Random read: seek + rotational latency + transfer.
    const PhysicalAddress addr = config_.geometry.locate(lba);
    const double seek = seek_time_s(head_cylinder_, addr.cylinder);
    const double rot = rng_.uniform(0.0, config_.geometry.revolution_s());
    auto media = sample_media_time(AccessKind::kRead, lba, sector_count,
                                   &retries);
    if (!media.has_value()) {
      const double p = servo_.attempt_success_probability(
          servo_state_, AccessKind::kRead, 1e-5);
      if (p <= 0.0) return hung();
      IoResult r = media_error(
          seek + rot +
          config_.max_media_retries * config_.geometry.revolution_s());
      if (r.status == IoStatus::kMediaError) {
        prefetch_active_ = false;
        prefetch_bytes_ = 0.0;
        head_cylinder_ = addr.cylinder;
      }
      return r;
    }
    const sim::SimTime media_begin =
        sim::max(start + overhead, media_free_at_);
    const sim::SimTime done =
        media_begin + sim::Duration::from_seconds(seek + rot + *media);
    if (done > deadline) return hung();
    prefetch_active_ = false;
    prefetch_bytes_ = 0.0;
    result.complete = done;
    media_free_at_ = done;
    interface_free_at_ = done;
    head_cylinder_ = addr.cylinder;
  }

  last_read_end_lba_ = lba + sector_count;
  result.status = IoStatus::kOk;
  result.media_retries = retries;
  stats_.bytes_read += bytes;

  if (!out.empty()) {
    if (out.size() != bytes) {
      throw std::invalid_argument("Hdd::read: output span size mismatch");
    }
    // Serve newest data: overlay (pending cache) wins over media.
    durable_.read(lba, sector_count, out);
    if (!pending_counts_.empty()) {
      // Coalesce overlay reads into contiguous pending runs: one overlay
      // read per run rather than per sector.
      std::uint32_t s = 0;
      while (s < sector_count) {
        if (pending_counts_.count(lba + s) == 0) {
          ++s;
          continue;
        }
        const std::uint32_t run_start = s;
        do {
          ++s;
        } while (s < sector_count && pending_counts_.count(lba + s) != 0);
        cache_overlay_.read(
            lba + run_start, s - run_start,
            out.subspan(static_cast<std::size_t>(run_start) * kSectorSize,
                        static_cast<std::size_t>(s - run_start) *
                            kSectorSize));
      }
    }
  }
  return result;
}

IoResult Hdd::write(sim::SimTime now, std::uint64_t lba,
                    std::uint32_t sector_count,
                    std::span<const std::byte> in, sim::SimTime deadline) {
  advance(now);
  ++stats_.writes;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(sector_count) * kSectorSize;
  if (in.size() != bytes) {
    throw std::invalid_argument("Hdd::write: input span size mismatch");
  }

  const sim::SimTime start = sim::max(now, interface_free_at_);
  const auto overhead =
      sim::Duration::from_seconds(config_.command_overhead_write_s);

  std::uint32_t retries = 0;
  auto hung = [&]() {
    ++stats_.hung_commands;
    return IoResult{IoStatus::kHung, sim::SimTime::infinity(), retries};
  };

  auto insert_into_cache = [&] {
    if (config_.retain_data) {
      cache_overlay_.write(lba, sector_count, in);
      for (std::uint32_t s = 0; s < sector_count; ++s) {
        ++pending_counts_[lba + s];
      }
      cache_fifo_.push_back(PendingWrite{
          lba, sector_count, std::vector<std::byte>(in.begin(), in.end())});
    } else {
      cache_fifo_.push_back(PendingWrite{lba, sector_count, {}});
    }
    cache_bytes_ += bytes;
  };

  if (!config_.write_cache_enabled) {
    // Write-through: pay seek + rotation + media directly.
    if (servo_state_.parked) return hung();
    const PhysicalAddress addr = config_.geometry.locate(lba);
    const double seek = seek_time_s(head_cylinder_, addr.cylinder);
    const double rot = rng_.uniform(0.0, config_.geometry.revolution_s());
    auto media =
        sample_media_time(AccessKind::kWrite, lba, sector_count, &retries);
    if (!media.has_value()) {
      const double p = servo_.attempt_success_probability(
          servo_state_, AccessKind::kWrite, 1e-5);
      if (p <= 0.0) return hung();
      ++stats_.media_errors;
      const sim::SimTime done =
          sim::max(start + overhead, media_free_at_) +
          sim::Duration::from_seconds(
              seek + rot +
              config_.max_media_retries * config_.geometry.revolution_s());
      if (done > deadline) return hung();
      media_free_at_ = done;
      interface_free_at_ = done;
      head_cylinder_ = addr.cylinder;
      return IoResult{IoStatus::kMediaError, done, retries};
    }
    const sim::SimTime done =
        sim::max(start + overhead, media_free_at_) +
        sim::Duration::from_seconds(seek + rot + *media);
    if (done > deadline) return hung();
    media_free_at_ = done;
    interface_free_at_ = done;
    head_cylinder_ = addr.cylinder;
    if (config_.retain_data) durable_.write(lba, sector_count, in);
    stats_.bytes_written += bytes;
    return IoResult{IoStatus::kOk, done, retries};
  }

  if (cache_bytes_ + bytes <= config_.write_cache_bytes) {
    // Fast path: absorb into the write-back cache.
    const sim::SimTime done = start + overhead;
    if (done > deadline) return hung();
    insert_into_cache();
    interface_free_at_ = done;
    stats_.bytes_written += bytes;
    return IoResult{IoStatus::kOk, done, 0};
  }

  // Cache full: the host blocks while the foreground drains enough space.
  if (servo_state_.parked) return hung();

  // Phase 1: sample the drain cost without touching the cache.
  std::uint64_t freed = 0;
  std::size_t pops = 0;
  double drain_s = 0.0;
  for (const auto& entry : cache_fifo_) {
    if (freed >= bytes) break;
    auto media = sample_media_time(AccessKind::kWrite, entry.lba,
                                   entry.sector_count, &retries);
    if (!media.has_value()) {
      const double p = servo_.attempt_success_probability(
          servo_state_, AccessKind::kWrite, 1e-5);
      if (p <= 0.0) return hung();
      ++stats_.media_errors;
      const sim::SimTime done =
          sim::max(start + overhead, media_free_at_) +
          sim::Duration::from_seconds(
              config_.max_media_retries * config_.geometry.revolution_s());
      if (done > deadline) return hung();
      media_free_at_ = done;
      interface_free_at_ = done;
      return IoResult{IoStatus::kMediaError, done, retries};
    }
    drain_s += *media;
    freed += entry.sector_count * kSectorSize;
    ++pops;
  }
  const sim::SimTime media_begin = sim::max(start + overhead, media_free_at_);
  const sim::SimTime done = media_begin + sim::Duration::from_seconds(drain_s);
  if (done > deadline) return hung();

  // Phase 2: commit.
  for (std::size_t i = 0; i < pops; ++i) pop_front_to_media();
  media_free_at_ = done;
  interface_free_at_ = done;
  insert_into_cache();
  stats_.bytes_written += bytes;
  return IoResult{IoStatus::kOk, done, retries};
}

IoResult Hdd::flush(sim::SimTime now, sim::SimTime deadline) {
  advance(now);
  ++stats_.flushes;
  const sim::SimTime start = sim::max(now, interface_free_at_);
  const auto overhead =
      sim::Duration::from_seconds(config_.command_overhead_write_s);
  std::uint32_t retries = 0;
  auto hung = [&]() {
    ++stats_.hung_commands;
    return IoResult{IoStatus::kHung, sim::SimTime::infinity(), retries};
  };
  if (cache_fifo_.empty()) {
    const sim::SimTime done = start + overhead;
    if (done > deadline) return hung();
    interface_free_at_ = done;
    return IoResult{IoStatus::kOk, done, 0};
  }
  if (servo_state_.parked) return hung();

  // Phase 1: sample the full drain cost.
  double drain_s = 0.0;
  for (const auto& entry : cache_fifo_) {
    auto media = sample_media_time(AccessKind::kWrite, entry.lba,
                                   entry.sector_count, &retries);
    if (!media.has_value()) {
      const double p = servo_.attempt_success_probability(
          servo_state_, AccessKind::kWrite, 1e-5);
      if (p <= 0.0) return hung();
      ++stats_.media_errors;
      const sim::SimTime done =
          sim::max(start + overhead, media_free_at_) +
          sim::Duration::from_seconds(
              config_.max_media_retries * config_.geometry.revolution_s());
      if (done > deadline) return hung();
      media_free_at_ = done;
      interface_free_at_ = done;
      return IoResult{IoStatus::kMediaError, done, retries};
    }
    drain_s += *media;
  }
  const sim::SimTime media_begin = sim::max(start + overhead, media_free_at_);
  const sim::SimTime done = media_begin + sim::Duration::from_seconds(drain_s);
  if (done > deadline) return hung();

  // Phase 2: commit.
  while (!cache_fifo_.empty()) pop_front_to_media();
  drain_credit_bytes_ = 0.0;
  media_free_at_ = done;
  interface_free_at_ = done;
  return IoResult{IoStatus::kOk, done, retries};
}

void Hdd::power_cut() {
  cache_fifo_.clear();
  cache_overlay_.clear();
  pending_counts_.clear();
  cache_bytes_ = 0;
  drain_credit_bytes_ = 0.0;
  prefetch_bytes_ = 0.0;
  prefetch_active_ = false;
}

std::uint64_t Hdd::cached_bytes(sim::SimTime now) {
  advance(now);
  return cache_bytes_;
}

}  // namespace deepnote::hdd
