// The cluster availability experiment: a serving datacenter under a
// single-pod acoustic attack, swept over placement policy and attacker
// distance.
//
// Each grid cell is one independent trial — its own Cluster, engine and
// traffic stream, assembled by the shared cell builder (cell.h) and
// seeded by sim::trial_seed — fanned across the parallel trial engine,
// so output is bit-identical at any DEEPNOTE_JOBS setting. A trial
// serves warmup traffic, insonifies one pod at 650 Hz / 140 dB for the
// attack window, then cools down; availability inside the window is
// accounted separately.
//
// The headline the table pins down: cross-pod 3-way replication rides
// out a pod-level attack above 99% availability, while the dense
// same-pod layout loses every replica at once and collapses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/traffic.h"
#include "sim/table.h"

namespace deepnote::cluster {

struct ClusterExperimentConfig {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod (default 3 x 5)
  std::vector<PlacementPolicy> policies = {
      PlacementPolicy::kSamePod,
      PlacementPolicy::kCrossPod,
      PlacementPolicy::kRackAware,
  };
  /// Attacker distances swept; nullopt = no-attack baseline row.
  std::vector<std::optional<double>> distances_m = {
      std::nullopt, 0.01, 0.05, 0.10, 0.25, 0.50};
  double frequency_hz = 650.0;
  double spl_air_db = 140.0;
  std::size_t attacked_pod = 0;

  std::size_t replication = 3;
  BalancerConfig balancer;  ///< policy field overridden per grid cell
  TrafficConfig traffic;    ///< duration field overridden per trial

  sim::Duration warmup = sim::Duration::from_seconds(10.0);
  sim::Duration attack_window = sim::Duration::from_seconds(40.0);
  sim::Duration cooldown = sim::Duration::from_seconds(10.0);

  std::uint64_t seed = 0xdeeb;
  unsigned jobs = 0;  ///< 0 = $DEEPNOTE_JOBS / all cores
};

/// The experiment at a given time scale (1.0 = the full 10/40/10 s
/// timeline; tests and benches run fractions of it). Rates, topology and
/// the policy/distance grid are unchanged by `scale`.
ClusterExperimentConfig cluster_experiment_config(double scale = 1.0);

struct ClusterTrialRow {
  PlacementPolicy policy = PlacementPolicy::kSamePod;
  std::optional<double> distance_m;

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double availability = 1.0;         ///< whole run
  double attack_availability = 1.0;  ///< attack-window arrivals only
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;

  std::uint64_t read_failovers = 0;
  std::uint64_t hedged_reads = 0;
  std::uint64_t drains = 0;
  std::uint64_t readmits = 0;
};

/// One grid cell on the sharded epoch engine (run_cluster_experiment
/// fans these across the trial pool). `zipf` optionally shares a
/// pre-built alias table across cells/iterations; `engine_jobs` is the
/// engine's internal wave parallelism (1 = inline, the right setting
/// when cells already fan across the trial pool).
ClusterTrialRow run_cluster_cell(const ClusterExperimentConfig& config,
                                 PlacementPolicy policy,
                                 std::optional<double> distance_m,
                                 std::uint64_t cell_seed,
                                 std::shared_ptr<const ZipfAliasSampler> zipf =
                                     nullptr,
                                 unsigned engine_jobs = 1);

/// Run the full grid; rows in (policy-major, distance-minor) order.
std::vector<ClusterTrialRow> run_cluster_experiment(
    const ClusterExperimentConfig& config);

/// Render the grid as the "cluster availability vs. replication policy
/// and attack distance" table.
sim::Table build_cluster_availability_table(
    const ClusterExperimentConfig& config,
    const std::vector<ClusterTrialRow>& rows);

// --- serving (queueing) experiment --------------------------------------
//
// The availability grid answers "does replication ride out the attack";
// this one answers "what does the *service* look like while it does":
// queue growth, shed/timeout counts, the queue-wait vs. service-time
// decomposition, and retry-storm amplification, swept over the serving
// knobs (queue limit, admission policy) with closed-loop clients.

struct ServingExperimentConfig {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod (default 3 x 5)
  /// Placement is fixed cross-pod: the grid isolates queueing behavior,
  /// the availability experiment already sweeps placement.
  PlacementPolicy policy = PlacementPolicy::kCrossPod;
  std::size_t replication = 3;

  std::vector<std::size_t> queue_limits = {4, 32};
  std::vector<serving::AdmissionPolicy> admissions = {
      serving::AdmissionPolicy::kRejectNew,
      serving::AdmissionPolicy::kDropOldest,
  };
  /// nullopt = no-attack baseline row.
  std::vector<std::optional<double>> distances_m = {std::nullopt, 0.01};
  double frequency_hz = 650.0;
  double spl_air_db = 140.0;
  std::size_t attacked_pod = 0;

  BalancerConfig balancer;    ///< policy/replication overridden per cell
  TrafficConfig traffic;      ///< duration overridden per trial
  ServingModeConfig serving;  ///< enabled forced on; queue knobs per cell

  sim::Duration warmup = sim::Duration::from_seconds(10.0);
  sim::Duration attack_window = sim::Duration::from_seconds(40.0);
  sim::Duration cooldown = sim::Duration::from_seconds(10.0);

  std::uint64_t seed = 0x5e4e;
  unsigned jobs = 0;  ///< 0 = $DEEPNOTE_JOBS / all cores
};

/// The serving experiment at a time scale (1.0 = the full 10/40/10 s
/// timeline); rates, topology, and the knob grid are unchanged.
ServingExperimentConfig serving_experiment_config(double scale = 1.0);

struct ServingTrialRow {
  std::size_t queue_limit = 0;
  serving::AdmissionPolicy admission = serving::AdmissionPolicy::kRejectNew;
  std::optional<double> distance_m;

  std::uint64_t requests = 0;
  double availability = 1.0;
  double attack_availability = 1.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// The latency decomposition across served/failed device legs.
  double queue_wait_p99_ms = 0.0;
  double service_p99_ms = 0.0;

  /// Request-level failure classification (a request only counts when
  /// every replica path was exhausted — replication absorbs most leg
  /// trouble) and the leg-level raw counts underneath it.
  std::uint64_t shed_requests = 0;
  std::uint64_t timed_out_requests = 0;
  std::uint64_t legs_shed = 0;
  std::uint64_t legs_timed_out = 0;
  std::uint64_t attack_shed = 0;       ///< attack-window arrivals only
  std::uint64_t attack_timed_out = 0;
  std::uint64_t client_retries = 0;    ///< retry-storm amplification
  std::uint64_t max_queue_depth = 0;
  std::uint64_t attack_max_queue_depth = 0;
  std::uint64_t read_failovers = 0;
  std::uint64_t drains = 0;
};

/// One serving grid cell on the engine in serving mode.
ServingTrialRow run_serving_cell(const ServingExperimentConfig& config,
                                 std::size_t queue_limit,
                                 serving::AdmissionPolicy admission,
                                 std::optional<double> distance_m,
                                 std::uint64_t cell_seed,
                                 std::shared_ptr<const ZipfAliasSampler> zipf =
                                     nullptr,
                                 unsigned engine_jobs = 1);

/// Run the full knob grid; rows in (queue-limit, admission, distance)
/// lexicographic order, fanned across the trial pool.
std::vector<ServingTrialRow> run_serving_experiment(
    const ServingExperimentConfig& config);

/// Render the grid as the "serving behavior under attack vs. queue
/// limit and admission policy" table.
sim::Table build_cluster_serving_table(const ServingExperimentConfig& config,
                                       const std::vector<ServingTrialRow>& rows);

}  // namespace deepnote::cluster
