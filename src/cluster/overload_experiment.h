// The overload-recovery experiment: metastable failure and the levers
// that prevent it.
//
// A two-pod acoustic attack pushes a closed-loop serving cluster past
// saturation. While the attack lasts, that is ordinary overload; the
// interesting question is what happens when it STOPS. With naive retry
// behavior — fixed un-jittered backoff, unlimited retries, and a server
// that wastes device time on requests whose deadline already passed —
// the retry load alone can hold the cluster above capacity, so goodput
// stays collapsed long after the trigger is gone: a metastable failure
// (Bronson et al.; Huang et al., PAPERS.md). With governance — capped
// exponential backoff with full per-client jitter, a cluster-wide retry
// budget, and expired-request dropping — the same population drains in
// seconds.
//
// The grid sweeps retry policy x circuit breakers x attack duration,
// measuring goodput inside the attack window, after it, and the time
// from attack-off to the first healthy SLO window. The attack is lowered
// like every other grid's, through ExperimentCell::pod_attack: each
// attacked pod goes on at attack-on and off at attack-off, on the
// engine's epoch barriers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/resilience/retry.h"
#include "cluster/traffic.h"
#include "sim/table.h"

namespace deepnote::cluster {

/// The two retry disciplines the grid contrasts.
enum class OverloadPolicy : std::uint8_t {
  kNaive,     ///< fixed 50 ms backoff, no jitter, unlimited retries,
              ///< expired requests still burn device time
  kGoverned,  ///< capped exponential + full jitter, bounded retries,
              ///< cluster-wide retry budget, expired requests dropped
};

const char* overload_policy_name(OverloadPolicy policy);

struct OverloadExperimentConfig {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod (default 3 x 5)
  PlacementPolicy placement = PlacementPolicy::kCrossPod;
  std::size_t replication = 3;

  std::vector<OverloadPolicy> policies = {OverloadPolicy::kNaive,
                                          OverloadPolicy::kGoverned};
  std::vector<bool> breaker_settings = {false, true};
  /// Attack pulse lengths swept (absolute, not scaled: the point of the
  /// short pulse is that naive retries stay collapsed anyway).
  std::vector<sim::Duration> attack_durations = {
      sim::Duration::from_seconds(5.0), sim::Duration::from_seconds(20.0)};

  /// Pods insonified simultaneously; with cross-pod R=3 and two of three
  /// pods under attack, every object is down to one healthy replica.
  std::vector<std::size_t> attacked_pods = {0, 1};
  double attack_distance_m = 0.01;
  double frequency_hz = 650.0;
  double spl_air_db = 140.0;

  std::size_t clients = 1024;
  std::size_t queue_limit = 128;
  serving::AdmissionPolicy admission = serving::AdmissionPolicy::kRejectNew;

  /// Retry shaping per policy (filled by overload_experiment_config).
  resilience::BackoffConfig naive_backoff;
  resilience::BackoffConfig governed_backoff;
  resilience::RetryBudgetConfig governed_budget;
  /// Breaker knobs for the breaker-on cells (enabled is set per cell).
  resilience::BreakerConfig breaker;

  BalancerConfig balancer;  ///< placement/replication overridden per cell
  TrafficConfig traffic;    ///< duration overridden per trial

  sim::Duration warmup = sim::Duration::from_seconds(5.0);
  /// Post-attack observation window (the recovery clock runs here).
  sim::Duration observe = sim::Duration::from_seconds(600.0);

  /// A post-attack SLO window at or above this availability ends the
  /// recovery clock; below `collapsed_availability` it counts as
  /// collapsed (the metastable signature is a long run of those).
  double recovered_availability = 0.99;
  double collapsed_availability = 0.5;

  std::uint64_t seed = 0x10ad;
  unsigned jobs = 0;  ///< 0 = $DEEPNOTE_JOBS / all cores
};

/// The experiment at a time scale: warmup and the post-attack
/// observation window shrink with `scale`; rates, the client population,
/// deadlines, backoffs and the attack pulses themselves are unscaled
/// (they are the physics of the collapse, not the measurement length).
OverloadExperimentConfig overload_experiment_config(double scale = 1.0);

struct OverloadTrialRow {
  OverloadPolicy policy = OverloadPolicy::kNaive;
  bool breaker_on = false;
  sim::Duration attack = sim::Duration::zero();

  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  double attack_availability = 1.0;  ///< arrivals inside the pulse
  double post_availability = 1.0;    ///< arrivals after attack-off
  /// Attack-off to the end of the first post-attack SLO window at or
  /// above the recovery threshold; `recovered` false means it never
  /// happened and recovery_s holds the full observation length.
  double recovery_s = 0.0;
  bool recovered = false;
  /// Post-attack windows below the collapse threshold (with traffic).
  std::uint64_t collapsed_windows = 0;

  std::uint64_t retry_budget_spent = 0;
  std::uint64_t retry_budget_denied = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t legs_cancelled = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t drains = 0;
};

/// One grid cell: an independent engine run (scripted pod attack,
/// serving mode, closed-loop clients), seeded from `cell_seed`.
OverloadTrialRow run_overload_cell(const OverloadExperimentConfig& config,
                                   OverloadPolicy policy, bool breaker_on,
                                   sim::Duration attack,
                                   std::uint64_t cell_seed,
                                   std::shared_ptr<const ZipfAliasSampler>
                                       zipf = nullptr,
                                   unsigned engine_jobs = 1);

/// Run the full grid; rows in (policy, breaker, attack) lexicographic
/// order, fanned across the trial pool.
std::vector<OverloadTrialRow> run_overload_experiment(
    const OverloadExperimentConfig& config);

/// Render the grid as the "overload recovery vs. retry governance"
/// table.
sim::Table build_overload_recovery_table(
    const OverloadExperimentConfig& config,
    const std::vector<OverloadTrialRow>& rows);

}  // namespace deepnote::cluster
