#include "core/live_attack.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/fio.h"
#include "workload/meter.h"

namespace deepnote::core {
namespace {

using sim::Duration;
using sim::SimTime;

TEST(LiveAttackTest, DriverAppliesAndClearsExcitation) {
  Testbed bed(make_scenario(ScenarioId::kPlasticTower));
  auto tone = std::make_shared<acoustics::ToneSignal>(
      650.0, 166.0, SimTime::from_seconds(1), SimTime::from_seconds(3));
  LiveAttackDriver driver(bed, tone, 0.01, Duration::from_millis(100));

  workload::ActorScheduler sched;
  sched.add(driver);
  // Before the tone starts: polling, no excitation.
  sched.run_until(SimTime::from_seconds(0.5));
  EXPECT_FALSE(bed.drive().parked());
  // During: the 650 Hz / 1 cm tone parks the drive.
  sched.run_until(SimTime::from_seconds(2.0));
  EXPECT_TRUE(bed.drive().parked());
  EXPECT_TRUE(driver.current_tone().active);
  // After: cleared and the driver retires.
  sched.run_until(SimTime::from_seconds(4.0));
  EXPECT_FALSE(bed.drive().parked());
  EXPECT_TRUE(driver.finished());
}

TEST(LiveAttackTest, SweepKillsOnlyDuringVulnerableDwell) {
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  Testbed bed(spec);

  // Three 10 s dwells: safe (100 Hz), vulnerable (650 Hz), safe (4 kHz).
  // Attack from 10 cm: writes degrade heavily but individual commands
  // still complete, so dwell transitions stay crisp. (At 1 cm a wedged
  // command would span dwells — the documented atomic-step limitation of
  // the virtual-time model.)
  auto sweep = std::make_shared<acoustics::SteppedSweepSignal>(
      std::vector<double>{100.0, 650.0, 4000.0}, 166.0,
      Duration::from_seconds(10));
  LiveAttackDriver driver(bed, sweep, 0.10, Duration::from_millis(50));

  // A sequential writer actor measuring per-dwell throughput.
  std::vector<std::byte> block(4096, std::byte{0x5a});
  std::array<std::uint64_t, 3> bytes_per_dwell{};
  std::uint64_t lba = 0;
  workload::LambdaActor writer(
      SimTime::zero(), [&](SimTime now) -> SimTime {
        const auto begin = now + workload::kSubmitOverhead;
        const storage::BlockIo io = bed.device().write(begin, lba, 8, block);
        if (io.ok()) {
          const auto dwell = static_cast<std::size_t>(
              std::min<std::int64_t>(io.complete.ns() / 10'000'000'000ll, 2));
          bytes_per_dwell[dwell] += 4096;
          lba += 8;
        }
        return io.complete;
      });

  workload::ActorScheduler sched;
  sched.add(driver);
  sched.add(writer);
  sched.run_until(SimTime::from_seconds(30));

  const double safe1 = static_cast<double>(bytes_per_dwell[0]) / 10e6;
  const double vuln = static_cast<double>(bytes_per_dwell[1]) / 10e6;
  const double safe2 = static_cast<double>(bytes_per_dwell[2]) / 10e6;
  EXPECT_GT(safe1, 20.0);
  // Middle dwell: writes collapse (cache absorption allows a little).
  EXPECT_LT(vuln, 5.0);
  EXPECT_GT(safe2, 15.0);  // recovery
}

TEST(LiveAttackTest, ChirpCrossesTheBand) {
  Testbed bed(make_scenario(ScenarioId::kPlasticTower));
  auto chirp = std::make_shared<acoustics::ChirpSignal>(
      100.0, 2000.0, 166.0, SimTime::zero(), Duration::from_seconds(10));
  LiveAttackDriver driver(bed, chirp, 0.01, Duration::from_millis(20));
  workload::ActorScheduler sched;
  sched.add(driver);

  // At t=0.5s the chirp is at ~195 Hz: safe.
  sched.run_until(SimTime::from_seconds(0.5));
  EXPECT_FALSE(bed.drive().parked());
  // At t=3s it is ~670 Hz: parked.
  sched.run_until(SimTime::from_seconds(3.0));
  EXPECT_TRUE(bed.drive().parked());
  // At t=9.9s it is ~1980 Hz: released again.
  sched.run_until(SimTime::from_seconds(9.95));
  EXPECT_FALSE(bed.drive().parked());
}

}  // namespace
}  // namespace deepnote::core
