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
// from attack-off to the first healthy SLO window. Its cells run on the
// grid scaffold (grid.h) like every other grid's. The config stays flat
// because perfbench's overload_1k workload reads its fields by name.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/grid.h"
#include "cluster/resilience/retry.h"
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

  /// Governed retry shaping (filled by overload_experiment_config; the
  /// naive policy's fixed backoff is a constant).
  resilience::BackoffConfig governed_backoff;
  resilience::RetryBudgetConfig governed_budget;
  /// Breaker knobs for the breaker-on cells (enabled is set per cell).
  resilience::BreakerConfig breaker;

  BalancerConfig balancer;  ///< placement/replication overridden per cell
  TrafficConfig traffic;    ///< duration overridden per trial

  sim::Duration warmup = sim::Duration::from_seconds(5.0);
  /// Post-attack observation window (the recovery clock runs here).
  sim::Duration observe = sim::Duration::from_seconds(600.0);

  std::uint64_t seed = 0x10ad;
};

/// The experiment at a time scale: warmup and the post-attack
/// observation window shrink with `scale`; rates, the client population,
/// deadlines, backoffs and the attack pulses themselves are unscaled
/// (they are the physics of the collapse, not the measurement length).
OverloadExperimentConfig overload_experiment_config(double scale = 1.0);

/// The grid's cells in (policy, breaker, attack) lexicographic order.
std::vector<CellSpec> overload_cells(const OverloadExperimentConfig& config);

/// The retry discipline an overload cell runs: governed cells drop
/// expired requests, naive ones serve them.
OverloadPolicy overload_policy(const CellSpec& cell);

/// Render the grid as the "overload recovery vs. retry governance"
/// table.
sim::Table build_overload_recovery_table(
    const OverloadExperimentConfig& config,
    const std::vector<CellResult>& results);

}  // namespace deepnote::cluster
