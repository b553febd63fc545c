#include "hdd/geometry.h"

#include <stdexcept>
#include <utility>

namespace deepnote::hdd {

Geometry::Geometry(std::uint32_t heads, double rpm, double track_pitch_nm,
                   std::vector<Zone> zones)
    : heads_(heads),
      rpm_(rpm),
      track_pitch_nm_(track_pitch_nm),
      zones_(std::move(zones)) {
  if (heads_ == 0) throw std::invalid_argument("geometry: heads must be > 0");
  if (rpm_ <= 0) throw std::invalid_argument("geometry: rpm must be > 0");
  if (zones_.empty()) throw std::invalid_argument("geometry: no zones");
  std::uint64_t lba = 0;
  std::uint32_t cyl = 0;
  for (auto& z : zones_) {
    if (z.cylinders == 0 || z.sectors_per_track == 0) {
      throw std::invalid_argument("geometry: empty zone");
    }
    z.first_cylinder = cyl;
    zone_first_lba_.push_back(lba);
    lba += static_cast<std::uint64_t>(z.cylinders) * heads_ *
           z.sectors_per_track;
    cyl += z.cylinders;
  }
  zone_first_lba_.push_back(lba);
  total_sectors_ = lba;
  total_cylinders_ = cyl;
}

Geometry Geometry::barracuda_500gb() {
  // 16 zones, sectors/track tapering 2400 -> 1200 (outer to inner),
  // 17k cylinders per zone so that total capacity ~= 500 GB with two
  // heads. 2400 spt outer gives ~147 MB/s sustained at the OD, ~74 MB/s
  // at the ID — in line with a 7200.12-class desktop drive.
  std::vector<Zone> zones;
  constexpr std::uint32_t kZones = 16;
  constexpr std::uint32_t kCylindersPerZone = 17000;
  for (std::uint32_t i = 0; i < kZones; ++i) {
    const std::uint32_t spt = 2400 - i * 80;  // 2400 .. 1200
    zones.push_back(Zone{.first_cylinder = 0,
                         .cylinders = kCylindersPerZone,
                         .sectors_per_track = spt});
  }
  return Geometry{/*heads=*/2, /*rpm=*/7200.0, /*track_pitch_nm=*/100.0,
                  std::move(zones)};
}

Geometry Geometry::tiny_test_drive() {
  std::vector<Zone> zones{
      Zone{.first_cylinder = 0, .cylinders = 64, .sectors_per_track = 64},
      Zone{.first_cylinder = 0, .cylinders = 64, .sectors_per_track = 32},
  };
  return Geometry{/*heads=*/2, /*rpm=*/7200.0, /*track_pitch_nm=*/100.0,
                  std::move(zones)};
}

std::uint32_t Geometry::zone_of(std::uint64_t lba) const {
  if (lba >= total_sectors_) {
    throw std::out_of_range("geometry: LBA beyond device");
  }
  // Zones are few; linear scan is fine and branch-predictable.
  std::uint32_t zi = 0;
  while (lba >= zone_first_lba_[zi + 1]) ++zi;
  return zi;
}

PhysicalAddress Geometry::locate(std::uint64_t lba) const {
  const std::uint32_t zi = zone_of(lba);
  const Zone& z = zones_[zi];
  const std::uint64_t in_zone = lba - zone_first_lba_[zi];
  const std::uint64_t per_cyl =
      static_cast<std::uint64_t>(heads_) * z.sectors_per_track;
  PhysicalAddress addr;
  addr.zone = zi;
  addr.cylinder = z.first_cylinder + static_cast<std::uint32_t>(in_zone / per_cyl);
  const std::uint64_t in_cyl = in_zone % per_cyl;
  addr.head = static_cast<std::uint32_t>(in_cyl / z.sectors_per_track);
  addr.sector = static_cast<std::uint32_t>(in_cyl % z.sectors_per_track);
  return addr;
}

std::uint32_t Geometry::sectors_per_track_at(std::uint64_t lba) const {
  return zones_[zone_of(lba)].sectors_per_track;
}

double Geometry::media_rate_bps(std::uint64_t lba) const {
  const double spt = sectors_per_track_at(lba);
  return spt * kSectorSize / revolution_s();
}

}  // namespace deepnote::hdd
