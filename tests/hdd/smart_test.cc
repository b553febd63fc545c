#include "hdd/smart.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "workload/fio.h"

namespace deepnote::hdd {
namespace {

using sim::SimTime;

void run_write_job(core::Testbed& bed, double seconds) {
  workload::FioJobConfig job;
  job.pattern = workload::IoPattern::kSeqWrite;
  job.ramp = sim::Duration::from_seconds(1.0);
  job.duration = sim::Duration::from_seconds(seconds);
  workload::FioRunner runner(bed.device());
  runner.run(SimTime::zero(), job);
}

TEST(SmartTest, FreshDriveIsHealthy) {
  core::ScenarioSpec spec =
      core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  core::Testbed bed(spec);
  run_write_job(bed, 10.0);
  const SmartLog log = smart_log(bed.drive());
  EXPECT_TRUE(log.healthy());
  const auto* rrer = log.find(kAttrRawReadErrorRate);
  ASSERT_NE(rrer, nullptr);
  EXPECT_EQ(rrer->normalized, 100);
  EXPECT_EQ(rrer->raw_value, 0u);
  const auto* ops = log.find(kAttrPowerOnIoCount);
  ASSERT_NE(ops, nullptr);
  EXPECT_GT(ops->raw_value, 1000u);
}

TEST(SmartTest, AttackLeavesForensicFingerprint) {
  core::ScenarioSpec spec =
      core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  core::Testbed bed(spec);
  core::AttackConfig attack;
  attack.distance_m = 0.10;  // heavy retries + false trips, no hard park
  bed.apply_attack(SimTime::zero(), attack);
  run_write_job(bed, 20.0);

  const SmartLog log = smart_log(bed.drive());
  const auto* retries = log.find(kAttrRetrySectorEvents);
  ASSERT_NE(retries, nullptr);
  EXPECT_GT(retries->raw_value, 100u);
  EXPECT_LT(retries->normalized, 100);
  const auto* parks = log.find(kAttrLoadCycleCount);
  ASSERT_NE(parks, nullptr);
  EXPECT_GT(parks->raw_value, 0u);
}

TEST(SmartTest, ParkedDriveAccumulatesTimeouts) {
  core::ScenarioSpec spec =
      core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  core::Testbed bed(spec);
  bed.apply_attack(SimTime::zero(), core::AttackConfig{});  // 1 cm: park
  std::vector<std::byte> out(4096);
  SimTime t = SimTime::zero();
  for (int i = 0; i < 10; ++i) {
    bed.device().read(t, static_cast<std::uint64_t>(i) * 8, 8, out);
    t = t + sim::Duration::from_seconds(80);
  }
  const SmartLog log = smart_log(bed.drive());
  const auto* timeouts = log.find(kAttrCommandTimeout);
  ASSERT_NE(timeouts, nullptr);
  EXPECT_GT(timeouts->raw_value, 9u);
}

// SMART 177 for the flash tier of a hybrid node: normalized health
// counts down linearly with consumed program/erase endurance. Takes
// plain numbers, so the HDD library stays independent of the flash
// model — the hybrid layer feeds it from FlashDevice wear counters.
TEST(SmartTest, MediaWearoutCountsDownWithEraseCycles) {
  const SmartAttribute fresh = media_wearout_attribute(0.0, 3000);
  EXPECT_EQ(fresh.id, kAttrMediaWearout);
  EXPECT_EQ(fresh.name, "Media_Wearout_Indicator");
  EXPECT_EQ(fresh.normalized, 100);
  EXPECT_EQ(fresh.raw_value, 0u);
  EXPECT_FALSE(fresh.failing_now());

  const SmartAttribute half = media_wearout_attribute(1500.0, 3000);
  EXPECT_EQ(half.normalized, 50);
  EXPECT_EQ(half.raw_value, 1500u);
  EXPECT_FALSE(half.failing_now());

  // At and past rated endurance the scale bottoms out at 1 (never 0),
  // and the attribute reads as failing against its threshold.
  const SmartAttribute spent = media_wearout_attribute(3000.0, 3000);
  EXPECT_EQ(spent.normalized, 1);
  EXPECT_TRUE(spent.failing_now());
  const SmartAttribute beyond = media_wearout_attribute(9000.0, 3000);
  EXPECT_EQ(beyond.normalized, 1);

  // A zero rating must not divide by zero.
  const SmartAttribute unrated = media_wearout_attribute(10.0, 0);
  EXPECT_GE(unrated.normalized, 1);
}

TEST(SmartTest, TextRenderingContainsAttributes) {
  core::ScenarioSpec spec =
      core::make_scenario(core::ScenarioId::kPlasticTower);
  core::Testbed bed(spec);
  const std::string text = smart_log(bed.drive()).to_text();
  EXPECT_NE(text.find("Raw_Read_Error_Rate"), std::string::npos);
  EXPECT_NE(text.find("Load_Cycle_Count"), std::string::npos);
  EXPECT_NE(text.find("Command_Timeout"), std::string::npos);
}

}  // namespace
}  // namespace deepnote::hdd
