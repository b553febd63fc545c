#include "core/detector.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "workload/fio.h"

namespace deepnote::core {
namespace {

using sim::Duration;
using sim::SimTime;

TEST(DetectorTest, QuietOnSteadyWorkload) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 10000; ++i) {
    t = t + Duration::from_micros(200);
    det.record_ok(t, 180e-6 + (i % 7) * 5e-6);  // mild jitter
  }
  EXPECT_FALSE(det.alerted());
  EXPECT_NEAR(det.baseline_latency_s(), 195e-6, 40e-6);
}

TEST(DetectorTest, AlertsOnLatencyJump) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 1000; ++i) {
    t = t + Duration::from_micros(200);
    det.record_ok(t, 200e-6);
  }
  ASSERT_FALSE(det.alerted());
  // The attack begins: latencies jump to ~15 ms (retry storms).
  for (int i = 0; i < 100 && !det.alerted(); ++i) {
    t = t + Duration::from_millis(15);
    det.record_ok(t, 15e-3);
  }
  EXPECT_TRUE(det.alerted());
  EXPECT_NE(det.alert_reason().find("latency anomaly"), std::string::npos);
}

TEST(DetectorTest, AlertsOnErrorBurst) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 500; ++i) {
    t = t + Duration::from_micros(200);
    det.record_ok(t, 200e-6);
  }
  det.record_error(t + Duration::from_seconds(75));
  det.record_error(t + Duration::from_seconds(150));
  EXPECT_FALSE(det.alerted());
  det.record_error(t + Duration::from_seconds(225));
  EXPECT_TRUE(det.alerted());
  EXPECT_NE(det.alert_reason().find("consecutive I/O failures"),
            std::string::npos);
}

TEST(DetectorTest, SuccessResetsErrorBurst) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 500; ++i) {
    t = t + Duration::from_micros(200);
    det.record_ok(t, 200e-6);
  }
  det.record_error(t);
  det.record_error(t);
  det.record_ok(t, 200e-6);  // recovered
  det.record_error(t);
  det.record_error(t);
  EXPECT_FALSE(det.alerted());
}

TEST(DetectorTest, BaselineNotPoisonedDuringAttack) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 1000; ++i) {
    t = t + Duration::from_micros(200);
    det.record_ok(t, 200e-6);
  }
  const double baseline_before = det.baseline_latency_s();
  for (int i = 0; i < 500; ++i) {
    t = t + Duration::from_millis(15);
    det.record_ok(t, 15e-3);
  }
  // The baseline must not have learned the attack latencies.
  EXPECT_LT(det.baseline_latency_s(), baseline_before * 1.5);
}

TEST(DetectorTest, AcknowledgeClearsAlert) {
  AttackDetector det;
  SimTime t = SimTime::zero();
  for (int i = 0; i < 500; ++i) det.record_ok(t, 200e-6);
  for (int i = 0; i < 3; ++i) det.record_error(t);
  ASSERT_TRUE(det.alerted());
  det.acknowledge();
  EXPECT_FALSE(det.alerted());
}

TEST(DetectorTest, EndToEndAgainstSimulatedAttack) {
  // Full-stack: FIO-style writer on the testbed; the detector watches
  // op completions and must fire within seconds of the attack starting.
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  Testbed bed(spec);
  AttackDetector det;

  std::vector<std::byte> block(4096, std::byte{0x5a});
  SimTime t = SimTime::zero();
  std::uint64_t lba = 0;
  const SimTime attack_at = SimTime::from_seconds(10);
  bool attack_applied = false;
  SimTime detected = SimTime::infinity();
  while (t < SimTime::from_seconds(120)) {
    if (!attack_applied && t >= attack_at) {
      AttackConfig attack;
      attack.distance_m = 0.10;  // degraded but serving: subtle case
      bed.apply_attack(t, attack);
      attack_applied = true;
    }
    const auto begin = t + workload::kSubmitOverhead;
    const storage::BlockIo io = bed.device().write(begin, lba, 8, block);
    if (io.ok()) {
      det.record_ok(io.complete, (io.complete - t).seconds());
    } else {
      det.record_error(io.complete);
    }
    lba += 8;
    t = io.complete;
    if (det.alerted()) {
      detected = t;
      break;
    }
  }
  ASSERT_TRUE(det.alerted());
  const double reaction = (detected - attack_at).seconds();
  EXPECT_GT(reaction, 0.0);
  EXPECT_LT(reaction, 30.0) << "detector too slow: " << reaction << "s";
}

}  // namespace
}  // namespace deepnote::core
