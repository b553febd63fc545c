// One timing-only FIO trial: the measurement behind Fig. 2, Table 1 and
// the defense, model and vessel ablations.
//
// Each trial builds a fresh testbed from a scenario spec with the
// defense fitted and payload retention off (the job reads only timing),
// applies the attack from t = 0 when there is one, and runs one job from
// t = 0. Trials share no state, so a grid of them runs on any number of
// threads with identical results.
#pragma once

#include <cstdint>
#include <optional>

#include "core/attack.h"
#include "core/defense.h"
#include "core/scenario.h"
#include "workload/fio.h"

namespace deepnote::core {

struct FioTrial {
  DefenseKind defense = DefenseKind::kNone;
  /// On from t = 0 for the whole job; absent for a no-attack baseline.
  std::optional<AttackConfig> attack;
  workload::IoPattern pattern = workload::IoPattern::kSeqWrite;
  sim::Duration ramp;
  sim::Duration duration;
  std::uint64_t seed = workload::FioJobConfig{}.seed;
};

workload::FioReport run_fio_trial(ScenarioSpec spec, const FioTrial& trial);

}  // namespace deepnote::core
