#include "core/sweep.h"

#include <algorithm>
#include <cmath>

#include "core/fio_trial.h"
#include "core/testbed.h"
#include "sim/trial_runner.h"

namespace deepnote::core {

SweepPoint FrequencySweep::measure_point(double frequency_hz,
                                         const SweepConfig& config,
                                         bool attack_on) const {
  SweepPoint point;
  point.frequency_hz = attack_on ? frequency_hz : 0.0;

  FioTrial trial;
  trial.ramp = config.ramp;
  trial.duration = config.duration;
  if (attack_on) {
    trial.attack = config.attack;
    trial.attack->frequency_hz = frequency_hz;
    // The prediction is pure in the attack parameters, so any testbed of
    // this scenario gives the one the write job runs under.
    point.offtrack_nm = Testbed(make_scenario(scenario_, config.seed))
                            .predicted_offtrack_nm(*trial.attack);
  }

  trial.pattern = workload::IoPattern::kSeqWrite;
  trial.seed = config.seed;
  point.write = run_fio_trial(make_scenario(scenario_, trial.seed), trial);
  trial.pattern = workload::IoPattern::kSeqRead;
  trial.seed = config.seed + 1;
  point.read = run_fio_trial(make_scenario(scenario_, trial.seed), trial);
  return point;
}

SweepPoint FrequencySweep::measure(double frequency_hz,
                                   const SweepConfig& config) const {
  return measure_point(frequency_hz, config, /*attack_on=*/true);
}

SweepPoint FrequencySweep::baseline(const SweepConfig& config) const {
  return measure_point(config.attack.frequency_hz, config,
                       /*attack_on=*/false);
}

std::vector<SweepPoint> FrequencySweep::run(
    const SweepConfig& config) const {
  return sim::run_trials<SweepPoint>(
      config.frequencies_hz.size(), config.jobs, [&](std::size_t i) {
        SweepConfig point_config = config;
        point_config.seed = sim::trial_seed(config.seed, i);
        return measure(config.frequencies_hz[i], point_config);
      });
}

bool FrequencySweep::vulnerable(const SweepPoint& point,
                                double baseline_mbps) {
  return point.write.throughput_mbps < 0.5 * baseline_mbps;
}

FrequencySweep::ReconResult FrequencySweep::recon(
    const AttackConfig& attack, double coarse_lo_hz, double coarse_hi_hz,
    double refine_step_hz, const SweepConfig* base) const {
  ReconResult out;
  SweepConfig config;
  if (base) config = *base;
  config.attack = attack;

  // True no-attack baseline (speaker off, not a "silent attack").
  out.baseline_mbps = baseline(config).write.throughput_mbps;

  // Coarse pass: quarter-octave steps.
  config.frequencies_hz = acoustics::SteppedSweepSignal::geometric_plan(
      coarse_lo_hz, coarse_hi_hz, std::pow(2.0, 0.25));
  out.coarse = run(config);

  std::optional<double> lo, hi;
  for (const auto& p : out.coarse) {
    if (vulnerable(p, out.baseline_mbps)) {
      if (!lo) lo = p.frequency_hz;
      hi = p.frequency_hz;
    }
  }
  if (!lo) return out;

  // Refine with 50 Hz steps one coarse step beyond the detected edges.
  const double refine_lo = std::max(coarse_lo_hz, *lo / std::pow(2.0, 0.25));
  const double refine_hi = std::min(coarse_hi_hz, *hi * std::pow(2.0, 0.25));
  config.frequencies_hz = acoustics::SteppedSweepSignal::linear_plan(
      refine_lo, refine_hi, refine_step_hz);
  out.refined = run(config);

  for (const auto& p : out.refined) {
    if (vulnerable(p, out.baseline_mbps)) {
      if (!out.band_lo_hz) out.band_lo_hz = p.frequency_hz;
      out.band_hi_hz = p.frequency_hz;
    }
  }
  return out;
}

}  // namespace deepnote::core
