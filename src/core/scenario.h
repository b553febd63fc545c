// The paper's three evaluation scenarios, fully parameterized.
//
//   Scenario 1: HDD on the floor of a hard plastic container.
//   Scenario 2: HDD in a 5-bay storage tower inside the plastic container
//               (the paper's "more realistic" choice for Tables 1-3).
//   Scenario 3: HDD in the storage tower inside an aluminum container.
//
// This file is the calibration hub: every constant marked CALIBRATED was
// chosen so the no-attack baselines and the attack-response *shape* match
// the paper (see DESIGN.md section 5 and EXPERIMENTS.md).
#pragma once

#include <string>

#include "acoustics/propagation.h"
#include "hdd/drive.h"
#include "storage/os_device.h"
#include "structure/chain.h"

namespace deepnote::core {

enum class ScenarioId {
  kPlasticFloor = 1,   ///< Scenario 1
  kPlasticTower = 2,   ///< Scenario 2
  kMetalTower = 3,     ///< Scenario 3
  /// Extension (not in the paper): a Project-Natick-style steel pressure
  /// vessel with a nitrogen interior — the real deployment the paper's
  /// Section 5 asks about ("the steel walls of a data center ... may
  /// attenuate the signal").
  kSteelVessel = 4,
};

struct ScenarioSpec {
  ScenarioId id = ScenarioId::kPlasticTower;
  std::string name;

  acoustics::WaterConditions water;
  acoustics::SpreadingParams spreading;
  acoustics::AbsorptionModel absorption =
      acoustics::AbsorptionModel::kFreshwater;

  structure::EnclosureSpec enclosure;
  structure::MountSpec mount;

  hdd::HddConfig hdd;
  storage::OsDeviceConfig os_device;
};

/// Build the calibrated spec for one of the paper's scenarios.
ScenarioSpec make_scenario(ScenarioId id, std::uint64_t seed = 0xd15c);

const char* scenario_name(ScenarioId id);

}  // namespace deepnote::core
