// Drive geometry: platters, zones, LBA -> physical mapping.
//
// Models a zoned-bit-recording 3.5" drive. Outer zones pack more sectors
// per track, so media transfer rate falls toward the inner diameter. The
// default preset approximates the paper's victim drive (Seagate Barracuda
// 500 GB, 7200 rpm, one platter / two heads).
#pragma once

#include <cstdint>
#include <vector>

namespace deepnote::hdd {

inline constexpr std::uint32_t kSectorSize = 512;

struct Zone {
  std::uint32_t first_cylinder = 0;
  std::uint32_t cylinders = 0;
  std::uint32_t sectors_per_track = 0;
};

struct PhysicalAddress {
  std::uint32_t cylinder = 0;
  std::uint32_t head = 0;
  std::uint32_t sector = 0;  ///< sector index within the track
  std::uint32_t zone = 0;
};

class Geometry {
 public:
  /// Builds a geometry from explicit zones. `heads` surfaces per cylinder.
  Geometry(std::uint32_t heads, double rpm, double track_pitch_nm,
           std::vector<Zone> zones);

  /// The paper's victim: Seagate Barracuda-class 500 GB desktop drive.
  /// 7200 rpm, 2 heads, 16 zones from 2400 down to 1200 sectors/track.
  static Geometry barracuda_500gb();

  /// Small geometry for fast unit tests (a few thousand sectors).
  static Geometry tiny_test_drive();

  std::uint64_t total_sectors() const { return total_sectors_; }
  std::uint64_t capacity_bytes() const {
    return total_sectors_ * kSectorSize;
  }
  std::uint32_t heads() const { return heads_; }
  std::uint32_t total_cylinders() const { return total_cylinders_; }
  double rpm() const { return rpm_; }
  /// One revolution, in seconds.
  double revolution_s() const { return 60.0 / rpm_; }
  /// Track pitch (center-to-center distance between adjacent tracks), nm.
  double track_pitch_nm() const { return track_pitch_nm_; }
  const std::vector<Zone>& zones() const { return zones_; }

  /// Maps an LBA to its physical location. Throws std::out_of_range for
  /// LBAs beyond the device.
  PhysicalAddress locate(std::uint64_t lba) const;

  /// Sectors per track at the given LBA's zone.
  std::uint32_t sectors_per_track_at(std::uint64_t lba) const;

  /// Sustained media transfer rate at the LBA's zone, bytes/second
  /// (sectors_per_track * sector_size / revolution).
  double media_rate_bps(std::uint64_t lba) const;

 private:
  /// The LBA's zone index: locate() without the cylinder/head/sector
  /// divisions. Throws std::out_of_range like locate().
  std::uint32_t zone_of(std::uint64_t lba) const;

  std::uint32_t heads_;
  double rpm_;
  double track_pitch_nm_;
  std::vector<Zone> zones_;
  std::vector<std::uint64_t> zone_first_lba_;  // per zone, then total
  std::uint32_t total_cylinders_ = 0;
  std::uint64_t total_sectors_ = 0;
};

}  // namespace deepnote::hdd
