#include "core/fio_trial.h"

#include <utility>

#include "core/testbed.h"

namespace deepnote::core {

workload::FioReport run_fio_trial(ScenarioSpec spec, const FioTrial& trial) {
  spec = with_defense(std::move(spec), trial.defense);
  spec.hdd.retain_data = false;
  Testbed bed(spec);
  install_defense(bed, trial.defense);
  if (trial.attack.has_value()) {
    AttackConfig attack = *trial.attack;
    attack.start = sim::SimTime::zero();
    attack.end = sim::SimTime::infinity();
    bed.apply_attack(sim::SimTime::zero(), attack);
  }
  workload::FioJobConfig job;
  job.pattern = trial.pattern;
  job.ramp = trial.ramp;
  job.duration = trial.duration;
  job.seed = trial.seed;
  workload::FioRunner runner(bed.device());
  return runner.run(sim::SimTime::zero(), job);
}

}  // namespace deepnote::core
