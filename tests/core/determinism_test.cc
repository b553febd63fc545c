// The parallel trial engine's core guarantee: running an experiment grid
// with N workers produces byte-identical results to running it serially
// (jobs=1), for the exact configurations the paper benches use (Fig. 2
// sweep, Table 1 range, Table 3 crashes) — only shortened.
//
// Also covers the attack-chain memo cache: hits must return the same
// values as cold evaluations, and defenses that edit the chain's
// transfer function must invalidate it.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/crash_experiment.h"
#include "core/defense.h"
#include "core/range_test.h"
#include "core/sweep.h"
#include "core/testbed.h"

namespace deepnote::core {
namespace {

void expect_identical(const workload::FioReport& a,
                      const workload::FioReport& b) {
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.read_mbps, b.read_mbps);
  EXPECT_EQ(a.write_mbps, b.write_mbps);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.ops_errored, b.ops_errored);
  EXPECT_EQ(a.p99_ms, b.p99_ms);
}

AttackConfig best_attack() {
  AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  return attack;
}

TEST(DeterminismTest, SweepParallelMatchesSerial) {
  FrequencySweep sweep(ScenarioId::kPlasticTower);
  SweepConfig config;
  config.attack = best_attack();
  config.ramp = sim::Duration::from_seconds(0.5);
  config.duration = sim::Duration::from_seconds(2.0);
  config.frequencies_hz = {200.0, 650.0, 650.0, 1200.0, 4000.0};

  config.jobs = 1;
  const auto serial = sweep.run(config);
  config.jobs = 4;
  const auto parallel = sweep.run(config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].frequency_hz, parallel[i].frequency_hz);
    EXPECT_EQ(serial[i].offtrack_nm, parallel[i].offtrack_nm);
    expect_identical(serial[i].write, parallel[i].write);
    expect_identical(serial[i].read, parallel[i].read);
  }
}

TEST(DeterminismTest, RangeFioParallelMatchesSerial) {
  RangeTest range(ScenarioId::kPlasticTower);
  RangeTestConfig config;
  config.attack = best_attack();
  config.distances_m = {std::nullopt, 0.01, 0.10, 0.15, 0.25};
  config.ramp = sim::Duration::from_seconds(1.0);
  config.duration = sim::Duration::from_seconds(4.0);

  config.jobs = 1;
  const auto serial = range.run_fio(config);
  config.jobs = 4;
  const auto parallel = range.run_fio(config);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].distance_m, parallel[i].distance_m);
    expect_identical(serial[i].read, parallel[i].read);
    expect_identical(serial[i].write, parallel[i].write);
  }
}

TEST(DeterminismTest, RangeKvdbParallelMatchesSerial) {
  // The Table-2 workload (readwhilewriting over the LSM store) exercises
  // the whole storage hot path: actor interleaving, sector-store runs,
  // WAL/memtable scratch buffers. The reports must stay bit-identical
  // across job counts.
  RangeTest range(ScenarioId::kPlasticTower);
  RangeTestConfig config;
  config.attack = best_attack();
  config.distances_m = {std::nullopt, 0.01, 0.15};
  config.ramp = sim::Duration::from_seconds(0.5);
  config.duration = sim::Duration::from_seconds(2.0);

  workload::DbBenchConfig bench;
  bench.preload_keys = 2000;
  bench.reader_actors = 2;
  bench.ramp = sim::Duration::from_seconds(0.5);
  bench.duration = sim::Duration::from_seconds(2.0);
  storage::kvdb::DbConfig db;

  config.jobs = 1;
  const auto serial = range.run_kvdb(config, bench, db);
  config.jobs = 4;
  const auto parallel = range.run_kvdb(config, bench, db);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].distance_m, parallel[i].distance_m);
    EXPECT_EQ(serial[i].report.throughput_mbps,
              parallel[i].report.throughput_mbps);
    EXPECT_EQ(serial[i].report.ops_per_second,
              parallel[i].report.ops_per_second);
    EXPECT_EQ(serial[i].report.ops, parallel[i].report.ops);
    EXPECT_EQ(serial[i].report.errors, parallel[i].report.errors);
    EXPECT_EQ(serial[i].report.db_fatal, parallel[i].report.db_fatal);
    EXPECT_EQ(serial[i].report.fatal_message, parallel[i].report.fatal_message);
    EXPECT_EQ(serial[i].report.end_time, parallel[i].report.end_time);
  }
  // The no-attack row actually made progress.
  EXPECT_GT(serial[0].report.ops, 0u);
}

TEST(DeterminismTest, CrashSuiteParallelMatchesSerial) {
  CrashExperiments experiments(ScenarioId::kPlasticTower);
  CrashExperimentConfig config;
  config.attack = best_attack();
  config.limit = sim::Duration::from_seconds(120.0);

  config.jobs = 1;
  const CrashSuite serial = experiments.run_all(config);
  config.jobs = 3;
  const CrashSuite parallel = experiments.run_all(config);

  const auto check = [](const CrashResult& a, const CrashResult& b) {
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.time_to_crash_s, b.time_to_crash_s);
    EXPECT_EQ(a.error_output, b.error_output);
  };
  check(serial.ext4, parallel.ext4);
  check(serial.ubuntu_server, parallel.ubuntu_server);
  check(serial.rocksdb, parallel.rocksdb);
  // And the suite matches the standalone entry points exactly.
  check(serial.ext4, experiments.ext4(config));
  EXPECT_TRUE(serial.ext4.crashed);
}

TEST(DeterminismTest, ReconBaselineIsTrueNoAttackRun) {
  FrequencySweep sweep(ScenarioId::kPlasticTower);
  SweepConfig config;
  config.attack = best_attack();
  config.ramp = sim::Duration::from_seconds(0.5);
  config.duration = sim::Duration::from_seconds(2.0);

  const SweepPoint base = sweep.baseline(config);
  EXPECT_EQ(base.offtrack_nm, 0.0);
  EXPECT_EQ(base.frequency_hz, 0.0);
  EXPECT_GT(base.write.throughput_mbps, 20.0);
  EXPECT_EQ(base.write.ops_errored, 0u);
}

TEST(DeterminismTest, OfftrackMemoHitsMatchColdValues) {
  Testbed bed(make_scenario(ScenarioId::kPlasticTower));
  AttackConfig attack = best_attack();

  std::vector<double> cold;
  for (double f = 100.0; f <= 4000.0; f += 100.0) {
    attack.frequency_hz = f;
    cold.push_back(bed.predicted_offtrack_nm(attack));
  }
  // Second pass: every lookup is a memo hit now.
  std::size_t i = 0;
  for (double f = 100.0; f <= 4000.0; f += 100.0) {
    attack.frequency_hz = f;
    EXPECT_EQ(bed.predicted_offtrack_nm(attack), cold[i++]) << f;
  }
  // A cache wipe changes nothing observable.
  bed.clear_analysis_cache();
  attack.frequency_hz = 600.0;
  EXPECT_EQ(bed.predicted_offtrack_nm(attack), cold[5]);
}

TEST(DeterminismTest, InsertionLossInvalidatesOfftrackMemo) {
  Testbed bed(make_scenario(ScenarioId::kPlasticTower));
  AttackConfig attack = best_attack();
  attack.frequency_hz = 2000.0;  // the liner bites hardest in the kHz range

  const double undefended = bed.predicted_offtrack_nm(attack);
  install_defense(bed, DefenseKind::kAbsorbingLiner);
  const double defended = bed.predicted_offtrack_nm(attack);
  EXPECT_LT(defended, undefended);

  // Matches a testbed that had the liner from the start (no stale memo).
  Testbed fresh(make_scenario(ScenarioId::kPlasticTower));
  install_defense(fresh, DefenseKind::kAbsorbingLiner);
  EXPECT_EQ(defended, fresh.predicted_offtrack_nm(attack));

  // Removing the loss restores the undefended value.
  bed.chain().set_insertion_loss(nullptr);
  EXPECT_EQ(bed.predicted_offtrack_nm(attack), undefended);
}

}  // namespace
}  // namespace deepnote::core
