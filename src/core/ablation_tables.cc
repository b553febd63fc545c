#include "core/ablation_tables.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "acoustics/propagation.h"
#include "acoustics/units.h"
#include "core/detector.h"
#include "core/fio_trial.h"
#include "core/live_attack.h"
#include "core/rack.h"
#include "storage/raid.h"

namespace deepnote::core {
namespace {

/// The paper's 140 dB SPL tone at `frequency_hz`, `distance_m` away.
AttackConfig tone_at(double frequency_hz, double distance_m) {
  AttackConfig attack;
  attack.frequency_hz = frequency_hz;
  attack.spl_air_db = 140.0;
  attack.distance_m = distance_m;
  return attack;
}

/// The FIO job every ablation measures: sequential 4 KiB, 3 s ramp, 8 s
/// window.
FioTrial ablation_trial(workload::IoPattern pattern) {
  FioTrial trial;
  trial.pattern = pattern;
  trial.ramp = sim::Duration::from_seconds(3.0);
  trial.duration = sim::Duration::from_seconds(8.0);
  return trial;
}

// --- environment -----------------------------------------------------------

acoustics::PropagationPath path_for(const acoustics::WaterConditions& water,
                                    acoustics::AbsorptionModel model) {
  return acoustics::PropagationPath(
      acoustics::Medium(water),
      acoustics::SpreadingParams{acoustics::SpreadingModel::kPractical, 0.01,
                                 100.0},
      model);
}

// --- model -----------------------------------------------------------------

enum class Variant {
  kFull,
  kNoWriteCache,
  kNoShockSensor,
  kNoServoRejection,
  kEqualTolerances,
};

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kFull: return "full model";
    case Variant::kNoWriteCache: return "write cache off";
    case Variant::kNoShockSensor: return "shock sensor off";
    case Variant::kNoServoRejection: return "servo rejection off";
    case Variant::kEqualTolerances: return "equal r/w tolerance";
  }
  return "?";
}

ScenarioSpec spec_for(Variant v) {
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  switch (v) {
    case Variant::kFull:
      break;
    case Variant::kNoWriteCache:
      spec.hdd.write_cache_enabled = false;
      break;
    case Variant::kNoShockSensor:
      spec.hdd.servo.park_fraction = 1e9;  // never parks
      spec.hdd.servo.false_trip_max_hz = 0.0;
      break;
    case Variant::kNoServoRejection:
      spec.hdd.servo.rejection_corner_hz = 0.0;
      break;
    case Variant::kEqualTolerances:
      spec.hdd.servo.read_fault_fraction = spec.hdd.servo.write_fault_fraction;
      break;
  }
  return spec;
}

struct ReadWrite {
  double read;
  double write;
};

/// Read and write MB/s of one variant; a distance of 0 is no attack.
ReadWrite measure(Variant v, double frequency_hz, double distance_m) {
  FioTrial trial = ablation_trial(workload::IoPattern::kSeqRead);
  if (distance_m > 0.0) trial.attack = tone_at(frequency_hz, distance_m);
  ReadWrite out{};
  out.read = run_fio_trial(spec_for(v), trial).throughput_mbps;
  trial.pattern = workload::IoPattern::kSeqWrite;
  out.write = run_fio_trial(spec_for(v), trial).throughput_mbps;
  return out;
}

// --- detection -------------------------------------------------------------

struct Detection {
  bool detected = false;
  double reaction_s = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t parks = 0;
  std::uint64_t hung = 0;
};

Detection run_monitored_attack(double frequency_hz, double distance_m) {
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  Testbed bed(spec);
  // One buffer-I/O error after steady service is alarming by itself; a
  // production monitor watching kernel logs would react even earlier, at
  // the first command-timeout reset (~25 s in).
  DetectorConfig det_cfg;
  det_cfg.error_burst = 1;
  AttackDetector detector(det_cfg);

  std::vector<std::byte> block(4096, std::byte{0x5a});
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  const sim::SimTime attack_at = sim::SimTime::from_seconds(10);
  bool attack_on = false;
  Detection out;
  while (t < sim::SimTime::from_seconds(200)) {
    if (!attack_on && t >= attack_at) {
      bed.apply_attack(t, tone_at(frequency_hz, distance_m));
      attack_on = true;
    }
    const auto begin = t + workload::kSubmitOverhead;
    const storage::BlockIo io = bed.device().write(begin, lba, 8, block);
    if (io.ok()) {
      detector.record_ok(io.complete, (io.complete - t).seconds());
    } else {
      detector.record_error(io.complete);
    }
    lba += 8;
    t = io.complete;
    if (attack_on && detector.alerted()) {
      out.detected = true;
      out.reaction_s = (detector.alert_time() - attack_at).seconds();
      break;
    }
  }
  out.retries = bed.drive().stats().media_retries;
  out.parks = bed.drive().stats().shock_parks;
  out.hung = bed.drive().stats().hung_commands;
  return out;
}

// --- vessel ----------------------------------------------------------------

/// Attacker SPL (air-reference dB, paper convention) needed to park the
/// drive at 1 cm and the given frequency: the off-track amplitude scales
/// linearly with pressure, so solve directly.
double required_spl_air_db(ScenarioId id, double frequency_hz) {
  Testbed bed(make_scenario(id));
  const double park_nm = bed.drive().servo().config().park_fraction *
                         bed.drive().servo().config().track_pitch_nm;
  const double nm = bed.predicted_offtrack_nm(tone_at(frequency_hz, 0.01));
  if (nm <= 0.0) return 1e9;
  return 140.0 + 20.0 * std::log10(park_nm / nm);
}

// --- pulsed ----------------------------------------------------------------

double write_mbps_under_pulse(double duty, double period_s) {
  ScenarioSpec spec = make_scenario(ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  Testbed bed(spec);

  // Pulse from 10 cm: the ON phase throttles writes to ~0.2 MB/s through
  // retry storms while commands still complete, so each pulse boundary
  // takes effect within one command. (At 1 cm the drive parks and a
  // single wedged command spans pulses — the virtual-time model's
  // documented atomic-step limit.)
  auto signal = std::make_shared<acoustics::PulsedToneSignal>(
      650.0, 166.0, sim::Duration::from_seconds(period_s), duty);
  LiveAttackDriver driver(bed, signal, 0.10, sim::Duration::from_millis(20),
                          sim::SimTime::zero(),
                          /*retire_on_silence=*/false);

  std::vector<std::byte> block(4096, std::byte{0x5a});
  std::uint64_t lba = 0;
  std::uint64_t bytes = 0;
  const sim::SimTime measure_from = sim::SimTime::from_seconds(5);
  const sim::SimTime measure_to = sim::SimTime::from_seconds(65);
  workload::LambdaActor writer(
      sim::SimTime::zero(), [&](sim::SimTime now) -> sim::SimTime {
        const auto begin = now + workload::kSubmitOverhead;
        const storage::BlockIo io = bed.device().write(begin, lba, 8, block);
        if (io.ok() && io.complete >= measure_from &&
            io.complete <= measure_to) {
          bytes += 4096;
        }
        lba += 8;
        return io.complete;
      });
  workload::ActorScheduler sched;
  sched.add(driver);
  sched.add(writer);
  sched.run_until(measure_to);
  return static_cast<double>(bytes) / 1e6 /
         (measure_to - measure_from).seconds();
}

}  // namespace

double kill_spl_at_wall_db() {
  Testbed bed(make_scenario(ScenarioId::kPlasticTower));
  const double park_nm = bed.drive().servo().config().park_fraction *
                         bed.drive().servo().config().track_pitch_nm;
  // predicted_offtrack scales linearly with incident pressure: find the
  // exterior SPL giving exactly park_nm.
  const AttackConfig probe = tone_at(650.0, 0.01);
  const double nm_at_166 = bed.predicted_offtrack_nm(probe);
  const double headroom_db =
      acoustics::db_from_field_ratio(nm_at_166 / park_nm);
  return bed.exterior_spl_db(probe) - headroom_db;
}

std::vector<sim::Table> environment_tables(double kill_spl_db) {
  using acoustics::AbsorptionModel;
  using acoustics::Medium;
  using acoustics::WaterConditions;
  struct Env {
    const char* name;
    WaterConditions water;
    AbsorptionModel model;
  };
  const Env envs[] = {
      {"lab tank (fresh, 22C)", WaterConditions::tank(),
       AbsorptionModel::kFreshwater},
      {"ocean 36 m (Natick)", WaterConditions::ocean(36.0),
       AbsorptionModel::kAinslieMcColm},
      {"ocean 20 m (Hainan)", WaterConditions::ocean(20.0),
       AbsorptionModel::kAinslieMcColm},
      {"Baltic 50 m", WaterConditions::baltic(),
       AbsorptionModel::kAinslieMcColm},
      {"warm ocean 36 m (25C)", WaterConditions{25.0, 35.0, 36.0, 8.0},
       AbsorptionModel::kAinslieMcColm},
  };
  std::vector<sim::Table> tables;
  {
    sim::Table& t =
        tables.emplace_back("Medium properties and 650 Hz absorption");
    t.set_columns({"Environment", "Sound speed m/s",
                   "Absorption dB/km @650Hz", "Absorption dB/km @8kHz"});
    for (const auto& env : envs) {
      const Medium m(env.water);
      t.row()
          .cell(env.name)
          .cell(m.sound_speed(), 1)
          .cell(absorption_db_per_km(env.model, 650.0, env.water), 4)
          .cell(absorption_db_per_km(env.model, 8000.0, env.water), 3);
    }
  }
  {
    struct Source {
      const char* name;
      double source_level_db;
    };
    const Source sources[] = {
        {"pool speaker, 140 dB SPL(air)", 166.0},
        {"pool speaker at max output", 180.0},
        {"sonar-class projector", 220.0},
    };
    sim::Table& t = tables.emplace_back(
        "Maximum attack range at 650 Hz (delivering the kill SPL)");
    std::vector<std::string> headers{"Environment"};
    for (const auto& s : sources) headers.emplace_back(s.name);
    t.set_columns(headers);
    for (const auto& env : envs) {
      t.row().cell(env.name);
      const auto path = path_for(env.water, env.model);
      for (const auto& s : sources) {
        const double range = path.max_effective_range_m(
            650.0, s.source_level_db, kill_spl_db);
        char buf[32];
        if (range >= 1000.0) {
          std::snprintf(buf, sizeof(buf), "%.1f km", range / 1000.0);
        } else {
          std::snprintf(buf, sizeof(buf), "%.2f m", range);
        }
        t.cell(buf);
      }
    }
  }
  {
    sim::Table& t = tables.emplace_back(
        "Required source level vs target distance (ocean, 650 Hz)");
    t.set_columns({"Distance", "Required SL dB re 1 uPa",
                   "Feasible with pool speaker (<=180 dB)",
                   "Feasible with sonar (<=220 dB)"});
    const auto ocean = path_for(WaterConditions::ocean(36.0),
                                AbsorptionModel::kAinslieMcColm);
    for (double d : {0.25, 1.0, 10.0, 100.0, 1000.0, 10000.0}) {
      const double sl = ocean.required_source_level_db(650.0, d, kill_spl_db);
      char dist[32];
      if (d >= 1000.0) {
        std::snprintf(dist, sizeof(dist), "%.0f km", d / 1000.0);
      } else {
        std::snprintf(dist, sizeof(dist), "%.2f m", d);
      }
      t.row()
          .cell(dist)
          .cell(sl, 1)
          .cell(sl <= 180.0 ? "yes" : "no")
          .cell(sl <= 220.0 ? "yes" : "no");
    }
  }
  return tables;
}

std::vector<sim::Table> defense_tables() {
  constexpr DefenseKind kAll[] = {
      DefenseKind::kNone, DefenseKind::kAbsorbingLiner,
      DefenseKind::kVibrationDampener, DefenseKind::kAugmentedController};
  auto write_mbps = [](DefenseKind kind, double frequency_hz,
                       double distance_m) {
    FioTrial trial = ablation_trial(workload::IoPattern::kSeqWrite);
    trial.defense = kind;
    trial.attack = tone_at(frequency_hz, distance_m);
    return run_fio_trial(make_scenario(ScenarioId::kPlasticTower), trial)
        .throughput_mbps;
  };
  std::vector<sim::Table> tables;
  {
    sim::Table& t = tables.emplace_back(
        "Write throughput (MB/s) vs frequency at 1 cm, per defense "
        "(baseline 22.7)");
    std::vector<std::string> headers{"Defense"};
    const double freqs[] = {300, 450, 650, 900, 1100, 1300, 1500};
    for (double f : freqs) headers.push_back(sim::format_fixed(f, 0) + " Hz");
    headers.push_back("overheat risk");
    t.set_columns(headers);
    for (auto kind : kAll) {
      t.row().cell(defense_name(kind));
      for (double f : freqs) t.cell(write_mbps(kind, f, 0.01), 1);
      t.cell(defense_properties(kind).overheating_risk, 2);
    }
  }
  {
    sim::Table& t = tables.emplace_back(
        "Write throughput (MB/s) vs distance at 650 Hz, per defense");
    std::vector<std::string> headers{"Defense"};
    const double dists[] = {0.01, 0.05, 0.10, 0.15, 0.20};
    for (double d : dists) {
      headers.push_back(sim::format_fixed(d * 100, 0) + " cm");
    }
    t.set_columns(headers);
    for (auto kind : kAll) {
      t.row().cell(defense_name(kind));
      for (double d : dists) t.cell(write_mbps(kind, 650.0, d), 1);
    }
  }
  return tables;
}

std::vector<sim::Table> rack_tables() {
  const RackConfig cfg;
  std::vector<sim::Table> tables;
  {
    sim::Table& t = tables.emplace_back(
        "5-bay tower: per-bay write throughput (MB/s) vs attack distance "
        "(650 Hz, 140 dB, Scenario 2 enclosure)");
    std::vector<std::string> headers{"Distance"};
    const RackTestbed layout(cfg);
    for (std::size_t bay = 0; bay < layout.bays(); ++bay) {
      headers.push_back("bay " + std::to_string(bay) + " (" +
                        sim::format_fixed(layout.bay_offset_db(bay), 1) +
                        " dB)");
    }
    headers.push_back("rack total");
    headers.push_back("parked bays");
    t.set_columns(headers);

    for (double d : {0.01, 0.03, 0.05, 0.08, 0.12, 0.20}) {
      RackTestbed rack(cfg);
      rack.apply_attack(sim::SimTime::zero(), tone_at(650.0, d));
      t.row().cell(sim::format_fixed(d * 100, 0) + " cm");
      double total = 0.0;
      for (std::size_t bay = 0; bay < rack.bays(); ++bay) {
        workload::FioJobConfig job;
        job.pattern = workload::IoPattern::kSeqWrite;
        job.ramp = sim::Duration::from_seconds(3.0);
        job.duration = sim::Duration::from_seconds(8.0);
        workload::FioRunner runner(rack.device(bay));
        const double mbps =
            runner.run(sim::SimTime::zero(), job).throughput_mbps;
        total += mbps;
        t.cell(mbps, 1);
      }
      t.cell(total, 1);
      t.cell(static_cast<std::int64_t>(rack.parked_bays()));
    }
  }

  // Does mirroring help? A RAID-1 pair inside the same tower vs a mirror
  // whose second member sits in a different (unattacked) enclosure.
  sim::Table& rt = tables.emplace_back(
      "RAID-1 under attack (650 Hz, 140 dB, 3 cm): same-rack mirror vs "
      "cross-enclosure mirror");
  rt.set_columns({"Mirror layout", "steady write MB/s", "degraded writes",
                  "failed I/Os", "members ejected"});
  for (const bool second_member_attacked : {true, false}) {
    RackTestbed rack(cfg);
    rack.apply_attack(sim::SimTime::zero(), tone_at(650.0, 0.03));
    // A second rack far away (or unattacked) hosts the remote mirror.
    RackTestbed remote(cfg);
    storage::BlockDevice* m0 = &rack.device(0);
    storage::BlockDevice* m1 =
        second_member_attacked
            ? static_cast<storage::BlockDevice*>(&rack.device(1))
            : &remote.device(0);
    storage::Raid1Device raid({m0, m1});
    std::vector<std::byte> block(4096, std::byte{0x5a});
    sim::SimTime now = sim::SimTime::zero();
    std::uint64_t bytes = 0;
    // Ejecting the wedged member costs 2 x 75 s of command timeouts;
    // measure the steady state after the md layer has acted.
    const sim::SimTime from = sim::SimTime::from_seconds(160);
    const sim::SimTime to = sim::SimTime::from_seconds(190);
    std::uint64_t lba = 0;
    while (now < to) {
      const storage::BlockIo io =
          raid.write(now + workload::kSubmitOverhead, lba, 8, block);
      if (io.ok() && io.complete >= from && io.complete <= to) {
        bytes += 4096;
      }
      lba += 8;
      now = io.complete;
    }
    rt.row()
        .cell(second_member_attacked ? "both members in attacked tower"
                                     : "second member in remote enclosure")
        .cell(static_cast<double>(bytes) / 1e6 / (to - from).seconds(), 1)
        .cell(static_cast<std::int64_t>(raid.stats().degraded_writes))
        .cell(static_cast<std::int64_t>(raid.stats().failed_ios))
        .cell(static_cast<std::int64_t>(raid.members() -
                                        raid.active_members()));
  }
  return tables;
}

std::vector<sim::Table> model_tables() {
  std::vector<sim::Table> tables;
  sim::Table& t = tables.emplace_back(
      "Model ablation: read/write MB/s (650 Hz unless noted, Scenario 2)");
  t.set_columns({"variant", "baseline R", "baseline W", "1cm R", "1cm W",
                 "10cm R", "10cm W", "150Hz@1cm W"});
  for (auto v : {Variant::kFull, Variant::kNoWriteCache,
                 Variant::kNoShockSensor, Variant::kNoServoRejection,
                 Variant::kEqualTolerances}) {
    const ReadWrite base = measure(v, 0.0, 0.0);
    const ReadWrite close = measure(v, 650.0, 0.01);
    const ReadWrite mid = measure(v, 650.0, 0.10);
    const ReadWrite low = measure(v, 150.0, 0.01);
    t.row()
        .cell(variant_name(v))
        .cell(base.read, 1)
        .cell(base.write, 1)
        .cell(close.read, 1)
        .cell(close.write, 1)
        .cell(mid.read, 1)
        .cell(mid.write, 1)
        .cell(low.write, 1);
  }
  return tables;
}

std::vector<sim::Table> detection_tables() {
  std::vector<sim::Table> tables;
  sim::Table& t = tables.emplace_back(
      "Host-side detection: reaction time of the latency/error monitor "
      "after attack start");
  t.set_columns({"Attack", "Detected", "Reaction s", "SMART retries",
                 "SMART parks", "SMART timeouts"});
  struct Case {
    const char* label;
    double frequency_hz;
    double distance_m;
  };
  const Case cases[] = {
      {"650 Hz @ 1 cm (kill)", 650.0, 0.01},
      {"650 Hz @ 10 cm (degrade)", 650.0, 0.10},
      {"650 Hz @ 15 cm (graze)", 650.0, 0.15},
      {"650 Hz @ 25 cm (none)", 650.0, 0.25},
      {"400 Hz @ 5 cm", 400.0, 0.05},
      {"1.2 kHz @ 5 cm (weak)", 1200.0, 0.05},
      {"4 kHz @ 1 cm (outside band)", 4000.0, 0.01},
  };
  for (const auto& c : cases) {
    const Detection out = run_monitored_attack(c.frequency_hz, c.distance_m);
    t.row().cell(c.label);
    if (out.detected) {
      t.cell("yes").cell(out.reaction_s, 1);
    } else {
      t.cell("no").dash();
    }
    t.cell(static_cast<std::int64_t>(out.retries));
    t.cell(static_cast<std::int64_t>(out.parks));
    t.cell(static_cast<std::int64_t>(out.hung));
  }
  return tables;
}

std::vector<sim::Table> vessel_tables() {
  std::vector<sim::Table> tables;
  {
    sim::Table& t = tables.emplace_back(
        "Head off-track amplitude (nm) at 140 dB SPL, 1 cm: paper testbed "
        "vs steel vessel (park at 25 nm, write fault at 10 nm)");
    t.set_columns({"Frequency", "Scenario 2 (plastic tote)",
                   "Steel pressure vessel"});
    for (double f : {150.0, 300.0, 520.0, 650.0, 900.0, 1300.0}) {
      const AttackConfig attack = tone_at(f, 0.01);
      const Testbed plastic(make_scenario(ScenarioId::kPlasticTower));
      const Testbed vessel(make_scenario(ScenarioId::kSteelVessel));
      t.row()
          .cell(sim::format_fixed(f, 0) + " Hz")
          .cell(plastic.predicted_offtrack_nm(attack), 1)
          .cell(vessel.predicted_offtrack_nm(attack), 2);
    }
  }
  {
    sim::Table& t = tables.emplace_back(
        "Write throughput (MB/s) under the paper's best attack (650 Hz, "
        "140 dB, 1 cm)");
    t.set_columns({"Deployment", "baseline", "under attack"});
    FioTrial trial = ablation_trial(workload::IoPattern::kSeqWrite);
    AttackConfig silent;
    silent.spl_air_db = -100.0;
    for (auto id : {ScenarioId::kPlasticTower, ScenarioId::kMetalTower,
                    ScenarioId::kSteelVessel}) {
      t.row().cell(scenario_name(id));
      for (const AttackConfig& attack : {silent, AttackConfig{}}) {
        trial.attack = attack;
        t.cell(run_fio_trial(make_scenario(id), trial).throughput_mbps, 1);
      }
    }
  }
  {
    sim::Table& t = tables.emplace_back(
        "Attacker SPL (dB re 20 uPa, the paper's convention) needed to "
        "PARK the drive at 1 cm");
    t.set_columns({"Frequency", "Scenario 2", "Steel vessel",
                   "feasible underwater source?"});
    for (double f : {300.0, 520.0, 650.0, 1000.0}) {
      const double plastic =
          required_spl_air_db(ScenarioId::kPlasticTower, f);
      const double vessel = required_spl_air_db(ScenarioId::kSteelVessel, f);
      // Our sonar-class projector tops out at 220 dB re 1 uPa = 194 dB
      // re 20 uPa equivalent.
      const char* feasible =
          vessel <= 194.0 ? "yes (sonar-class)" : "beyond sonar-class";
      t.row()
          .cell(sim::format_fixed(f, 0) + " Hz")
          .cell(plastic, 1)
          .cell(vessel, 1)
          .cell(feasible);
    }
  }
  return tables;
}

std::vector<sim::Table> pulsed_tables() {
  std::vector<sim::Table> tables;
  sim::Table& t = tables.emplace_back(
      "Pulsed 650 Hz attack at 10 cm: steady-state write throughput (MB/s, "
      "baseline 22.7) vs duty cycle");
  t.set_columns({"Duty cycle", "period 2 s", "period 5 s", "period 10 s"});
  for (double duty : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    t.row().cell(sim::format_fixed(duty * 100, 0) + " %");
    for (double period : {2.0, 5.0, 10.0}) {
      t.cell(write_mbps_under_pulse(duty, period), 1);
    }
  }
  return tables;
}

}  // namespace deepnote::core
