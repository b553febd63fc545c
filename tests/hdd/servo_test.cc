#include "hdd/servo.h"

#include <gtest/gtest.h>

#include <cmath>

namespace deepnote::hdd {
namespace {

ServoConfig base_config() {
  ServoConfig cfg;
  cfg.track_pitch_nm = 100.0;
  cfg.write_fault_fraction = 0.10;
  cfg.read_fault_fraction = 0.20;
  cfg.compliance_floor_nm_per_pa = 0.01;
  cfg.rejection_corner_hz = 0.0;  // disable for direct threshold math
  cfg.park_fraction = 0.25;
  cfg.false_trip_max_hz = 10.0;
  return cfg;
}

structure::DriveExcitation excite(double f, double pa) {
  return structure::DriveExcitation{f, pa, true};
}

TEST(ServoTest, Thresholds) {
  Servo servo(base_config());
  EXPECT_DOUBLE_EQ(servo.fault_threshold_nm(AccessKind::kWrite), 10.0);
  EXPECT_DOUBLE_EQ(servo.fault_threshold_nm(AccessKind::kRead), 20.0);
}

TEST(ServoTest, ReadToleranceMustExceedWrite) {
  ServoConfig cfg = base_config();
  cfg.read_fault_fraction = 0.05;  // tighter than write: invalid
  EXPECT_THROW(Servo{cfg}, std::invalid_argument);
}

TEST(ServoTest, NoExcitationMeansClean) {
  Servo servo(base_config());
  const ServoState st = servo.evaluate(structure::DriveExcitation{});
  EXPECT_EQ(st.offtrack_amplitude_nm, 0.0);
  EXPECT_FALSE(st.parked);
  EXPECT_EQ(st.false_trip_rate_hz, 0.0);
  EXPECT_EQ(servo.good_window_fraction(st, AccessKind::kWrite), 1.0);
}

TEST(ServoTest, AmplitudeIsPressureTimesCompliance) {
  Servo servo(base_config());
  // Floor-only compliance of 0.01 nm/Pa: 500 Pa -> 5 nm.
  const ServoState st = servo.evaluate(excite(650.0, 500.0));
  EXPECT_NEAR(st.offtrack_amplitude_nm, 5.0, 1e-9);
}

TEST(ServoTest, BelowThresholdFullWindow) {
  Servo servo(base_config());
  const ServoState st = servo.evaluate(excite(650.0, 900.0));  // 9 nm < 10
  EXPECT_EQ(servo.good_window_fraction(st, AccessKind::kWrite), 1.0);
  EXPECT_EQ(servo.attempt_success_probability(st, AccessKind::kWrite, 1e-4),
            1.0);
}

TEST(ServoTest, WindowShrinksWithAmplitude) {
  Servo servo(base_config());
  // 2x write threshold: w = (2/pi) asin(1/2) = 1/3.
  const ServoState st = servo.evaluate(excite(650.0, 2000.0));
  EXPECT_NEAR(servo.good_window_fraction(st, AccessKind::kWrite), 1.0 / 3.0,
              1e-9);
  // Read tolerance 20 nm equals the amplitude: full read window.
  EXPECT_EQ(servo.good_window_fraction(st, AccessKind::kRead), 1.0);
}

TEST(ServoTest, ReadsToleratesMoreThanWrites) {
  Servo servo(base_config());
  for (double pa : {1200.0, 1500.0, 2000.0, 2400.0}) {
    const ServoState st = servo.evaluate(excite(650.0, pa));
    EXPECT_GE(servo.good_window_fraction(st, AccessKind::kRead),
              servo.good_window_fraction(st, AccessKind::kWrite))
        << pa;
  }
}

TEST(ServoTest, AccessDurationPenalty) {
  Servo servo(base_config());
  const ServoState st = servo.evaluate(excite(650.0, 2000.0));  // w = 1/3
  const double p_fast =
      servo.attempt_success_probability(st, AccessKind::kWrite, 1e-6);
  const double p_slow =
      servo.attempt_success_probability(st, AccessKind::kWrite, 2e-4);
  EXPECT_GT(p_fast, p_slow);
  // Penalty is 2 f t: 2*650*2e-4 = 0.26.
  EXPECT_NEAR(p_fast - p_slow, 2.0 * 650.0 * (2e-4 - 1e-6), 1e-6);
}

TEST(ServoTest, SustainedParkAboveParkThreshold) {
  Servo servo(base_config());
  // Park at 25 nm: 2600 Pa * 0.01 = 26 nm.
  const ServoState st = servo.evaluate(excite(650.0, 2600.0));
  EXPECT_TRUE(st.parked);
  EXPECT_EQ(servo.good_window_fraction(st, AccessKind::kRead), 0.0);
  EXPECT_EQ(servo.attempt_success_probability(st, AccessKind::kRead, 1e-5),
            0.0);
}

TEST(ServoTest, FalseTripRateRampsQuadratically) {
  Servo servo(base_config());
  // Below 40% of park amplitude: no trips.
  EXPECT_EQ(servo.evaluate(excite(650.0, 900.0)).false_trip_rate_hz, 0.0);
  // At the park threshold boundary the rate approaches the max.
  const double near =
      servo.evaluate(excite(650.0, 2499.0)).false_trip_rate_hz;
  EXPECT_NEAR(near, 10.0, 0.1);
  // Midway (70% of park = 17.5 nm): (0.5)^2 * 10 = 2.5.
  const double mid =
      servo.evaluate(excite(650.0, 1750.0)).false_trip_rate_hz;
  EXPECT_NEAR(mid, 2.5, 0.05);
}

TEST(ServoTest, RejectionSuppressesLowFrequencies) {
  ServoConfig cfg = base_config();
  cfg.rejection_corner_hz = 420.0;
  cfg.rejection_order = 4;
  Servo servo(cfg);
  const double at_100 =
      servo.evaluate(excite(100.0, 1000.0)).offtrack_amplitude_nm;
  const double at_420 =
      servo.evaluate(excite(420.0, 1000.0)).offtrack_amplitude_nm;
  const double at_4200 =
      servo.evaluate(excite(4200.0, 1000.0)).offtrack_amplitude_nm;
  EXPECT_LT(at_100, at_420);
  // At the corner: half amplitude.
  EXPECT_NEAR(at_420, 5.0, 0.01);
  // Far above: full amplitude.
  EXPECT_NEAR(at_4200, 10.0, 0.01);
  // 100 Hz is (100/420)^4 / (1+...) ~ 0.32% of full.
  EXPECT_LT(at_100, 0.05);
}

TEST(ServoTest, ComplianceModesPeakAboveFloor) {
  ServoConfig cfg = base_config();
  cfg.compliance_modes.add_mode(structure::Mode{
      .f0_hz = 700.0, .q = 3.0, .peak_gain_db = 40.0, .label = {}});
  Servo servo(cfg);
  EXPECT_NEAR(servo.compliance_nm_per_pa(700.0), 0.01 * 101.0, 0.05);
  EXPECT_LT(servo.compliance_nm_per_pa(10000.0),
            servo.compliance_nm_per_pa(700.0) / 10.0);
}

class WindowMathTest : public ::testing::TestWithParam<double> {};

TEST_P(WindowMathTest, MatchesAsinFormula) {
  Servo servo(base_config());
  const double ratio = GetParam();  // amplitude / threshold
  const ServoState st =
      servo.evaluate(excite(650.0, 1000.0 * ratio));  // 10*ratio nm
  const double expected = (2.0 / M_PI) * std::asin(1.0 / ratio);
  EXPECT_NEAR(servo.good_window_fraction(st, AccessKind::kWrite), expected,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ratios, WindowMathTest,
                         ::testing::Values(1.1, 1.5, 2.0, 2.49));

}  // namespace
}  // namespace deepnote::hdd
