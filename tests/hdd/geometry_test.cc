#include "hdd/geometry.h"

#include <gtest/gtest.h>

#include <set>

namespace deepnote::hdd {
namespace {

TEST(GeometryTest, BarracudaCapacityIsHalfTerabyte) {
  const Geometry g = Geometry::barracuda_500gb();
  EXPECT_GT(g.capacity_bytes(), 470e9);
  EXPECT_LT(g.capacity_bytes(), 530e9);
  EXPECT_EQ(g.heads(), 2u);
  EXPECT_DOUBLE_EQ(g.rpm(), 7200.0);
  EXPECT_NEAR(g.revolution_s(), 8.333e-3, 1e-5);
}

TEST(GeometryTest, LocateFirstAndLastSector) {
  const Geometry g = Geometry::barracuda_500gb();
  const PhysicalAddress first = g.locate(0);
  EXPECT_EQ(first.cylinder, 0u);
  EXPECT_EQ(first.head, 0u);
  EXPECT_EQ(first.sector, 0u);
  EXPECT_EQ(first.zone, 0u);
  const PhysicalAddress last = g.locate(g.total_sectors() - 1);
  EXPECT_EQ(last.zone, g.zones().size() - 1);
  EXPECT_EQ(last.cylinder, g.total_cylinders() - 1);
}

TEST(GeometryTest, LocateBeyondDeviceThrows) {
  const Geometry g = Geometry::tiny_test_drive();
  EXPECT_THROW(g.locate(g.total_sectors()), std::out_of_range);
}

TEST(GeometryTest, MappingIsInjective) {
  const Geometry g = Geometry::tiny_test_drive();
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  for (std::uint64_t lba = 0; lba < g.total_sectors(); ++lba) {
    const PhysicalAddress a = g.locate(lba);
    ASSERT_TRUE(
        seen.emplace(a.cylinder, a.head, a.sector).second)
        << "duplicate mapping at lba " << lba;
    ASSERT_LT(a.sector, g.zones()[a.zone].sectors_per_track);
    ASSERT_LT(a.head, g.heads());
  }
  EXPECT_EQ(seen.size(), g.total_sectors());
}

TEST(GeometryTest, SequentialLbasStayOnTrackThenAdvance) {
  const Geometry g = Geometry::tiny_test_drive();
  const std::uint32_t spt = g.zones()[0].sectors_per_track;
  for (std::uint32_t i = 0; i < spt; ++i) {
    EXPECT_EQ(g.locate(i).head, 0u);
    EXPECT_EQ(g.locate(i).cylinder, 0u);
    EXPECT_EQ(g.locate(i).sector, i);
  }
  // Next sector rolls to the next head, same cylinder.
  EXPECT_EQ(g.locate(spt).head, 1u);
  EXPECT_EQ(g.locate(spt).cylinder, 0u);
}

TEST(GeometryTest, OuterZoneFasterThanInner) {
  const Geometry g = Geometry::barracuda_500gb();
  const double outer = g.media_rate_bps(0);
  const double inner = g.media_rate_bps(g.total_sectors() - 1);
  EXPECT_GT(outer, inner);
  EXPECT_NEAR(outer / inner, 2.0, 0.1);  // 2400 vs 1200 spt
  // Outer-zone sustained rate ~147 MB/s, desktop-class.
  EXPECT_NEAR(outer / 1e6, 147.0, 5.0);
}

TEST(GeometryTest, InvalidConfigsThrow) {
  EXPECT_THROW(Geometry(0, 7200, 100, {Zone{0, 1, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Geometry(1, 0, 100, {Zone{0, 1, 1}}), std::invalid_argument);
  EXPECT_THROW(Geometry(1, 7200, 100, {}), std::invalid_argument);
  EXPECT_THROW(Geometry(1, 7200, 100, {Zone{0, 0, 1}}),
               std::invalid_argument);
}

class ZoneBoundaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZoneBoundaryTest, ZoneIndexMatchesLocate) {
  const Geometry g = Geometry::barracuda_500gb();
  const std::size_t zi = GetParam();
  ASSERT_LT(zi, g.zones().size());
  // First LBA of zone zi: sum of previous zone sizes.
  std::uint64_t lba = 0;
  for (std::size_t i = 0; i < zi; ++i) {
    lba += static_cast<std::uint64_t>(g.zones()[i].cylinders) * g.heads() *
           g.zones()[i].sectors_per_track;
  }
  EXPECT_EQ(g.locate(lba).zone, zi);
  if (lba > 0) {
    EXPECT_EQ(g.locate(lba - 1).zone, zi - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Zones, ZoneBoundaryTest,
                         ::testing::Values(0u, 1u, 7u, 15u));

}  // namespace
}  // namespace deepnote::hdd
