#include "core/rack.h"

#include <gtest/gtest.h>

#include <vector>

#include "workload/fio.h"

namespace deepnote::core {
namespace {

AttackConfig best_attack(double distance_m = 0.01) {
  AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = distance_m;
  return attack;
}

TEST(RackTest, BuildsRequestedBays) {
  RackConfig cfg;
  cfg.bays = 5;
  RackTestbed rack(cfg);
  EXPECT_EQ(rack.bays(), 5u);
  EXPECT_EQ(rack.parked_bays(), 0u);
}

TEST(RackTest, ZeroBaysRejected) {
  RackConfig cfg;
  cfg.bays = 0;
  EXPECT_THROW(RackTestbed rack(cfg), std::invalid_argument);
}

TEST(RackTest, CouplingFallsAcrossBays) {
  RackTestbed rack(RackConfig{});
  const AttackConfig attack = best_attack();
  double prev = 1e12;
  for (std::size_t bay = 0; bay < rack.bays(); ++bay) {
    const double nm = rack.predicted_offtrack_nm(bay, attack);
    EXPECT_LT(nm, prev) << "bay " << bay;
    prev = nm;
  }
}

TEST(RackTest, CloseAttackParksWholeRack) {
  RackTestbed rack(RackConfig{});
  rack.apply_attack(sim::SimTime::zero(), best_attack(0.01));
  EXPECT_EQ(rack.parked_bays(), rack.bays());
  rack.stop_attack(sim::SimTime::from_seconds(1));
  EXPECT_EQ(rack.parked_bays(), 0u);
}

TEST(RackTest, MidRangeAttackKillsOnlyNearBays) {
  // At an intermediate distance the near bays park while far bays hold:
  // the partial-rack kill the bench demonstrates.
  RackTestbed rack(RackConfig{});
  const double park_nm = 25.0;
  // Find a distance with a genuine split.
  double split_distance = 0.0;
  for (double d = 0.02; d <= 0.20; d += 0.005) {
    const double near = rack.predicted_offtrack_nm(0, best_attack(d));
    const double far =
        rack.predicted_offtrack_nm(rack.bays() - 1, best_attack(d));
    if (near >= park_nm && far < park_nm) {
      split_distance = d;
      break;
    }
  }
  ASSERT_GT(split_distance, 0.0) << "no partial-kill distance found";
  rack.apply_attack(sim::SimTime::zero(), best_attack(split_distance));
  EXPECT_GT(rack.parked_bays(), 0u);
  EXPECT_LT(rack.parked_bays(), rack.bays());
}

TEST(RackTest, BaysServeIndependently) {
  RackTestbed rack(RackConfig{});
  rack.apply_attack(sim::SimTime::zero(), best_attack(0.06));
  // Run a short FIO job against the nearest and farthest bays.
  auto run = [&](std::size_t bay) {
    workload::FioJobConfig job;
    job.pattern = workload::IoPattern::kSeqWrite;
    job.ramp = sim::Duration::from_seconds(2.0);
    job.duration = sim::Duration::from_seconds(5.0);
    workload::FioRunner runner(rack.device(bay));
    return runner.run(sim::SimTime::zero(), job).throughput_mbps;
  };
  const double near = run(0);
  const double far = run(rack.bays() - 1);
  EXPECT_LT(near, far);
}

TEST(RackTest, BayOffsetsAreLinear) {
  RackConfig cfg;
  cfg.near_bay_gain_db = 2.0;
  cfg.per_bay_step_db = -1.5;
  RackTestbed rack(cfg);
  EXPECT_DOUBLE_EQ(rack.bay_offset_db(0), 2.0);
  EXPECT_DOUBLE_EQ(rack.bay_offset_db(2), -1.0);
  EXPECT_DOUBLE_EQ(rack.bay_offset_db(4), -4.0);
}

}  // namespace
}  // namespace deepnote::core
