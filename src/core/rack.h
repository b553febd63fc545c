// Multi-drive rack testbed.
//
// The paper's Scenario 2/3 tower is a 5-in-3 hot-swap cage holding one
// victim drive in the second bay. A real deployment fills every bay; the
// bays do not couple to the enclosure field identically — bays nearer
// the incident wall see more excitation. This testbed models a full
// tower: one structural chain per bay with a per-bay coupling offset,
// and an independent drive + OS block device per bay.
//
// Every bay is timing-only: its drive keeps no written bytes, which no
// rack user reads back. The rack ablation (`reproduce rack`) uses it to
// show partial-rack kills: an attack tone can take out the near bays
// while far bays keep serving. Each cluster pod is one rack.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/attack.h"
#include "core/scenario.h"
#include "hdd/drive.h"
#include "storage/os_device.h"
#include "structure/chain.h"

namespace deepnote::core {

struct RackConfig {
  ScenarioId scenario = ScenarioId::kPlasticTower;
  std::size_t bays = 5;
  /// Coupling offset of bay 0 (closest to the incident wall), dB.
  double near_bay_gain_db = 1.5;
  /// Additional offset per bay moving away from the wall, dB (negative).
  double per_bay_step_db = -2.0;
  std::uint64_t seed = 0x4acc;
  /// Override the scenario's OS block-layer config (the cluster layer
  /// runs datacenter-tuned command timeouts instead of desktop defaults).
  std::optional<storage::OsDeviceConfig> os_device;
};

class RackTestbed {
 public:
  explicit RackTestbed(RackConfig config);

  std::size_t bays() const { return drives_.size(); }

  /// Apply/retune the attack on every bay.
  void apply_attack(sim::SimTime now, const AttackConfig& attack);
  void stop_attack(sim::SimTime now);

  /// Predicted head off-track amplitude at bay `i` (nm), non-mutating.
  double predicted_offtrack_nm(std::size_t bay,
                               const AttackConfig& attack) const;

  hdd::Hdd& drive(std::size_t bay) { return *drives_.at(bay); }
  storage::OsBlockDevice& device(std::size_t bay) {
    return *devices_.at(bay);
  }
  const ScenarioSpec& spec() const { return spec_; }
  double bay_offset_db(std::size_t bay) const;

  /// Count of bays currently parked by the shock sensor.
  std::size_t parked_bays() const;

 private:
  structure::DriveExcitation excitation_for(std::size_t bay,
                                            const AttackConfig& attack) const;

  RackConfig config_;
  ScenarioSpec spec_;
  acoustics::PropagationPath path_;
  std::vector<structure::StructuralChain> chains_;  // one per bay
  std::vector<std::unique_ptr<hdd::Hdd>> drives_;
  std::vector<std::unique_ptr<storage::OsBlockDevice>> devices_;
};

}  // namespace deepnote::core
