// Event-driven (virtual-time) hard disk drive model.
//
// The drive is the victim of the acoustic attack. It executes reads,
// writes and cache flushes in *simulated* time: each call takes the
// caller's current SimTime and returns the operation's completion time
// and status, advancing internal lazily-maintained state (write-cache
// fill, look-ahead prefetch, shock-sensor trips).
//
// Timing model
// ------------
//  * Host writes land in the volatile write-back cache at interface cost;
//    a background drain empties the cache to media. When the cache is
//    full the host write blocks until the drain frees a slot.
//  * Sequential host reads are fed by a look-ahead prefetcher that
//    streams from media into a bounded buffer; a hit costs only the
//    interface overhead, a dry buffer blocks the reader on the media.
//  * Random reads pay seek + rotational latency + transfer.
//  * Every media access runs under the servo model: a failed attempt
//    costs one revolution (the sector must come around again). A command
//    that exhausts its retry budget completes with kMediaError.
//  * The shock sensor parks the heads above its threshold; a parked drive
//    does not serve media at all (ops report kHung and never complete —
//    the OS layer above imposes its own command timeout). Near the
//    threshold the sensor false-trips stochastically, freezing the media
//    path for a park/resume cycle each time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "hdd/geometry.h"
#include "hdd/sector_store.h"
#include "hdd/servo.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace deepnote::hdd {

enum class IoStatus {
  kOk,
  kMediaError,  ///< retry budget exhausted; the command failed
  kHung,        ///< drive is not responding (heads parked / zero window)
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  sim::SimTime complete = sim::SimTime::zero();  ///< infinity when hung
  std::uint32_t media_retries = 0;

  bool ok() const { return status == IoStatus::kOk; }
};

struct HddConfig {
  Geometry geometry = Geometry::barracuda_500gb();
  ServoConfig servo;

  // Mechanics.
  double seek_track_to_track_s = 0.0008;
  double seek_full_stroke_s = 0.018;

  // Interface / firmware command overheads (calibrated so the paper's
  // no-attack FIO baselines hold: see core/scenario.cc).
  double command_overhead_read_s = 100e-6;
  double command_overhead_write_s = 60e-6;

  // Write-back cache.
  bool write_cache_enabled = true;
  std::uint64_t write_cache_bytes = 32ull << 20;

  // Look-ahead prefetch buffer for sequential reads.
  std::uint64_t lookahead_buffer_bytes = 2ull << 20;
  /// A read within this LBA distance of the previous one counts as
  /// sequential for the prefetcher.
  std::uint64_t sequential_window_sectors = 256;

  // Per-command media retry budget before giving up with kMediaError.
  std::uint32_t max_media_retries = 64;

  /// When false, written bytes are not retained (reads return zeros).
  /// Timing behaviour is identical; raw-device throughput benches disable
  /// retention to avoid gigabytes of backing memory.
  bool retain_data = true;

  std::uint64_t rng_seed = 0xd15cull;
};

struct HddStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t media_retries = 0;
  std::uint64_t media_errors = 0;
  std::uint64_t hung_commands = 0;
  std::uint64_t shock_parks = 0;  ///< false-trip park/resume cycles
};

class Hdd {
 public:
  explicit Hdd(HddConfig config);

  /// Update the acoustic excitation acting on the drive. Must be called
  /// with a monotonically non-decreasing `now`.
  void set_excitation(sim::SimTime now,
                      const structure::DriveExcitation& excitation);

  /// Submit a read of `sector_count` sectors at `lba`. `out` receives the
  /// data (sized sector_count * 512) when the status is kOk. If the
  /// command cannot complete by `deadline` it reports kHung with no side
  /// effects (the host command timer will fire and reset the device).
  IoResult read(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count, std::span<std::byte> out,
                sim::SimTime deadline = sim::SimTime::infinity());

  /// Submit a write. Data becomes durable when the cache drains (or
  /// immediately if the write cache is disabled).
  IoResult write(sim::SimTime now, std::uint64_t lba,
                 std::uint32_t sector_count, std::span<const std::byte> in,
                 sim::SimTime deadline = sim::SimTime::infinity());

  /// FLUSH CACHE: completes when every cached write has reached media.
  IoResult flush(sim::SimTime now,
                 sim::SimTime deadline = sim::SimTime::infinity());

  /// Simulated power loss: volatile cache contents are dropped. Durable
  /// data is unaffected. Used by crash-consistency tests.
  void power_cut();

  /// Device reset, as issued by the OS error handler after a command
  /// timeout (SCSI bus reset). Aborts whatever the media path is stuck on;
  /// the drive is ready again after a short recovery. State (cache
  /// contents, servo excitation) is preserved.
  void reset(sim::SimTime now);

  /// Start loading the drive object's cache lines, which every command
  /// touches first. A hint only: no state changes.
  void prefetch() const {
    const char* first = reinterpret_cast<const char*>(this);
    for (std::size_t at = 0; at < sizeof(Hdd); at += 64) {
      __builtin_prefetch(first + at);
    }
    // An object not aligned to a line ends on one more.
    __builtin_prefetch(first + sizeof(Hdd) - 1);
  }

  /// True while the shock sensor holds the heads parked.
  bool parked() const { return servo_state_.parked; }

  const ServoState& servo_state() const { return servo_state_; }
  const HddStats& stats() const { return stats_; }
  const Geometry& geometry() const { return config_.geometry; }
  const Servo& servo() const { return servo_; }
  const HddConfig& config() const { return config_; }

  /// Bytes currently pending in the write cache (after lazy drain to
  /// `now`). Mutates lazily-maintained state.
  std::uint64_t cached_bytes(sim::SimTime now);

 private:
  struct PendingWrite {
    std::uint64_t lba;
    std::uint32_t sector_count;
    std::vector<std::byte> data;
  };

  /// Advance lazily-maintained background state (cache drain, prefetch
  /// fill, shock false trips) to `now`.
  void advance(sim::SimTime now);

  /// Expected media time for one sequential 4 KiB-ish unit at `lba` under
  /// the current servo state; infinity-signal (<=0 rate) when blocked.
  double expected_media_unit_s(AccessKind kind, std::uint64_t lba) const;

  /// Sample the media time for an access of `bytes` at `lba` including
  /// servo retries. Returns nullopt when the access cannot complete
  /// (zero window). Adds to retry counters.
  std::optional<double> sample_media_time(AccessKind kind, std::uint64_t lba,
                                          std::uint32_t sector_count,
                                          std::uint32_t* retries_out);

  double seek_time_s(std::uint32_t from_cyl, std::uint32_t to_cyl) const;

  /// Media availability in [0,1]: share of wall time the media path is
  /// usable, accounting for shock-sensor false trips.
  double media_availability() const;

  void drain_fully(sim::SimTime now);

  /// Write the oldest cached entry to media and drop it from the cache.
  void pop_front_to_media();

  HddConfig config_;
  Servo servo_;
  ServoState servo_state_;
  sim::Rng rng_;

  SectorStore durable_;
  SectorStore cache_overlay_;
  std::deque<PendingWrite> cache_fifo_;
  /// Per-sector count of pending cached writes; reads prefer the overlay
  /// while a sector has any pending write.
  std::unordered_map<std::uint64_t, std::uint32_t> pending_counts_;
  std::uint64_t cache_bytes_ = 0;

  // Lazy background-state cursor.
  sim::SimTime bg_cursor_ = sim::SimTime::zero();
  sim::SimTime next_trip_ = sim::SimTime::infinity();
  double drain_credit_bytes_ = 0.0;
  double prefetch_bytes_ = 0.0;
  std::uint64_t prefetch_next_lba_ = 0;
  std::uint64_t last_read_end_lba_ = 0;
  bool prefetch_active_ = false;

  // Device busy bookkeeping (single command channel).
  sim::SimTime interface_free_at_ = sim::SimTime::zero();
  sim::SimTime media_free_at_ = sim::SimTime::zero();

  std::uint32_t head_cylinder_ = 0;

  HddStats stats_;
};

}  // namespace deepnote::hdd
