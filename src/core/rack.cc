#include "core/rack.h"

#include <stdexcept>

namespace deepnote::core {

RackTestbed::RackTestbed(RackConfig config)
    : config_(config),
      spec_(make_scenario(config.scenario, config.seed)),
      path_(acoustics::Medium(spec_.water), spec_.spreading,
            spec_.absorption) {
  if (config_.bays == 0) {
    throw std::invalid_argument("rack: needs at least one bay");
  }
  if (config_.os_device.has_value()) spec_.os_device = *config_.os_device;
  spec_.hdd.retain_data = false;
  for (std::size_t bay = 0; bay < config_.bays; ++bay) {
    structure::MountSpec mount = spec_.mount;
    mount.broadband_coupling_db += bay_offset_db(bay);
    chains_.emplace_back(structure::Enclosure(spec_.enclosure),
                         structure::Mount(mount));
    hdd::HddConfig drive_cfg = spec_.hdd;
    drive_cfg.rng_seed = config_.seed + 0x9e3779b9ull * (bay + 1);
    drives_.push_back(std::make_unique<hdd::Hdd>(drive_cfg));
    devices_.push_back(std::make_unique<storage::OsBlockDevice>(
        *drives_.back(), spec_.os_device));
  }
}

double RackTestbed::bay_offset_db(std::size_t bay) const {
  return config_.near_bay_gain_db +
         config_.per_bay_step_db * static_cast<double>(bay);
}

structure::DriveExcitation RackTestbed::excitation_for(
    std::size_t bay, const AttackConfig& attack) const {
  const acoustics::AcousticSource source = attack.make_source();
  const acoustics::ToneState emitted = source.emitted(attack.start);
  const acoustics::ToneState incident =
      path_.received(emitted, attack.distance_m);
  return chains_.at(bay).excite(incident);
}

void RackTestbed::apply_attack(sim::SimTime now, const AttackConfig& attack) {
  for (std::size_t bay = 0; bay < bays(); ++bay) {
    drives_[bay]->set_excitation(now, excitation_for(bay, attack));
  }
}

void RackTestbed::stop_attack(sim::SimTime now) {
  for (auto& drive : drives_) {
    drive->set_excitation(now, structure::DriveExcitation{});
  }
}

double RackTestbed::predicted_offtrack_nm(std::size_t bay,
                                          const AttackConfig& attack) const {
  const auto excitation = excitation_for(bay, attack);
  return drives_.at(bay)->servo().evaluate(excitation).offtrack_amplitude_nm;
}

std::size_t RackTestbed::parked_bays() const {
  std::size_t n = 0;
  for (const auto& drive : drives_) {
    if (drive->parked()) ++n;
  }
  return n;
}

}  // namespace deepnote::core
