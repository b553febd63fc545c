#include "core/range_test.h"

#include <stdexcept>

#include "core/fio_trial.h"
#include "core/testbed.h"
#include "sim/trial_runner.h"
#include "storage/extfs.h"

namespace deepnote::core {

std::vector<FioRangeRow> RangeTest::run_fio(
    const RangeTestConfig& config) const {
  return sim::run_trials<FioRangeRow>(
      config.distances_m.size(), config.jobs, [&](std::size_t i) {
        const std::optional<double>& distance = config.distances_m[i];
        const std::uint64_t row_seed = sim::trial_seed(config.seed, i);
        FioRangeRow row;
        row.distance_m = distance;

        FioTrial trial;
        if (distance.has_value()) {
          trial.attack = config.attack;
          trial.attack->distance_m = *distance;
        }
        trial.ramp = config.ramp;
        trial.duration = config.duration;
        trial.pattern = workload::IoPattern::kSeqRead;
        trial.seed = row_seed;
        row.read = run_fio_trial(make_scenario(scenario_, trial.seed), trial);
        trial.pattern = workload::IoPattern::kSeqWrite;
        trial.seed = row_seed + 1;
        row.write = run_fio_trial(make_scenario(scenario_, trial.seed), trial);
        return row;
      });
}

std::vector<KvRangeRow> RangeTest::run_kvdb(
    const RangeTestConfig& config, const workload::DbBenchConfig& bench,
    const storage::kvdb::DbConfig& db_config) const {
  return sim::run_trials<KvRangeRow>(
      config.distances_m.size(), config.jobs, [&](std::size_t i) {
        const std::optional<double>& distance = config.distances_m[i];
        KvRangeRow row;
        row.distance_m = distance;

        ScenarioSpec spec =
            make_scenario(scenario_, sim::trial_seed(config.seed, i));
        Testbed bed(spec);

        // Setup phase (no attack): format, mount, open, preload, flush.
        sim::SimTime t = sim::SimTime::zero();
        storage::MkfsOptions mkfs;
        mkfs.total_blocks = 2u << 18;  // 4 GiB filesystem
        storage::FsResult fr = storage::ExtFs::mkfs(bed.device(), t, mkfs);
        if (!fr.ok()) throw std::runtime_error("range kvdb: mkfs failed");
        auto mount = storage::ExtFs::mount(bed.device(), fr.done);
        if (!mount.ok()) throw std::runtime_error("range kvdb: mount failed");
        storage::ExtFs& fs = *mount.fs;
        auto open = storage::kvdb::Db::open(fs, mount.done, db_config);
        if (!open.ok()) throw std::runtime_error("range kvdb: open failed");
        storage::kvdb::Db& db = *open.db;

        workload::DbBench dbb(fs, db);
        t = dbb.fillseq(open.done, bench.preload_keys, bench);
        if (db.fatal()) {
          throw std::runtime_error("range kvdb: preload failed");
        }
        storage::kvdb::DbResult fl = db.flush(t);
        if (!fl.ok()) throw std::runtime_error("range kvdb: preload flush");
        storage::FsResult sync = fs.sync(fl.done);
        t = sync.done;

        // Attack on, then the measured phase.
        if (distance.has_value()) {
          AttackConfig attack = config.attack;
          attack.distance_m = *distance;
          attack.start = t;
          bed.apply_attack(t, attack);
        }
        workload::DbBenchConfig run_cfg = bench;
        run_cfg.duration = config.duration;
        row.report = dbb.readwhilewriting(t, run_cfg);
        return row;
      });
}

}  // namespace deepnote::core
