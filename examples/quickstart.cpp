// Quickstart: assemble the paper's Scenario 2 testbed, measure the
// baseline, then fire the best-attack tone (650 Hz, 140 dB SPL, 1 cm)
// and watch the drive die.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "workload/fio.h"

using namespace deepnote;

namespace {

/// Scenario 2, timing only: no job reads a written byte back, so the
/// drive keeps none.
core::ScenarioSpec scenario2() {
  core::ScenarioSpec spec =
      core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  return spec;
}

workload::FioReport run_fio(core::Testbed& bed, workload::IoPattern pattern,
                            std::uint64_t seed) {
  workload::FioJobConfig job;
  job.pattern = pattern;
  job.ramp = sim::Duration::from_seconds(2.0);
  job.duration = sim::Duration::from_seconds(10.0);
  job.seed = seed;
  workload::FioRunner runner(bed.device());
  return runner.run(sim::SimTime::zero(), job);
}

void print_report(const char* label, const workload::FioReport& r) {
  if (r.latency_ms.has_value()) {
    std::printf("  %-28s %6.1f MB/s   lat %.2f ms   (%llu ops, %llu errors)\n",
                label, r.throughput_mbps, *r.latency_ms,
                static_cast<unsigned long long>(r.ops_completed),
                static_cast<unsigned long long>(r.ops_errored));
  } else {
    std::printf("  %-28s %6.1f MB/s   lat -        (%llu ops, %llu errors)\n",
                label, r.throughput_mbps,
                static_cast<unsigned long long>(r.ops_completed),
                static_cast<unsigned long long>(r.ops_errored));
  }
}

}  // namespace

int main() {
  std::printf("Deep Note quickstart — Scenario 2 (plastic container, "
              "storage tower)\n\n");

  // Baseline: no attack.
  {
    core::Testbed bed(scenario2());
    print_report("baseline seq write:",
                 run_fio(bed, workload::IoPattern::kSeqWrite, 1));
  }
  {
    core::Testbed bed(scenario2());
    print_report("baseline seq read:",
                 run_fio(bed, workload::IoPattern::kSeqRead, 2));
  }

  // The paper's best attack parameters.
  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;

  {
    core::Testbed bed(scenario2());
    std::printf("\nattack: %.0f Hz at %.0f dB SPL, %.0f cm from the "
                "enclosure\n",
                attack.frequency_hz, attack.spl_air_db,
                attack.distance_m * 100);
    std::printf("  exterior SPL at wall:    %.1f dB re 1 uPa\n",
                bed.exterior_spl_db(attack));
    std::printf("  predicted head off-track: %.1f nm (write fault at %.1f "
                "nm, park at %.1f nm)\n",
                bed.predicted_offtrack_nm(attack),
                bed.drive().servo().fault_threshold_nm(hdd::AccessKind::kWrite),
                bed.drive().servo().config().park_fraction *
                    bed.drive().servo().config().track_pitch_nm);

    bed.apply_attack(sim::SimTime::zero(), attack);
    print_report("under attack seq write:",
                 run_fio(bed, workload::IoPattern::kSeqWrite, 3));
  }
  {
    core::Testbed bed(scenario2());
    bed.apply_attack(sim::SimTime::zero(), attack);
    print_report("under attack seq read:",
                 run_fio(bed, workload::IoPattern::kSeqRead, 4));
    std::printf("\n  drive stats: %llu hung commands, %llu media retries, "
                "%llu shock parks\n",
                static_cast<unsigned long long>(bed.drive().stats().hung_commands),
                static_cast<unsigned long long>(bed.drive().stats().media_retries),
                static_cast<unsigned long long>(bed.drive().stats().shock_parks));
  }
  return 0;
}
