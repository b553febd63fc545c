// The cluster availability experiment: a serving datacenter under a
// single-pod acoustic attack, swept over placement policy and attacker
// distance.
//
// Each grid cell is one independent trial — its own Cluster, engine and
// traffic stream, run by the grid scaffold (grid.h) and seeded by
// sim::trial_seed — fanned across the parallel trial engine, so output
// is bit-identical at any DEEPNOTE_JOBS setting. A trial serves warmup
// traffic, insonifies one pod at 650 Hz / 140 dB for the attack window,
// then cools down; availability inside the window is accounted
// separately.
//
// The headline the table pins down: cross-pod 3-way replication rides
// out a pod-level attack above 99% availability, while the dense
// same-pod layout loses every replica at once and collapses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/grid.h"
#include "sim/table.h"

namespace deepnote::cluster {

struct ClusterExperimentConfig {
  /// The cell every grid point starts from: 3 pods x 5 bays, R=3,
  /// pod 0 insonified at 650 Hz / 140 dB for the attack window.
  CellSpec cell;
  std::vector<PlacementPolicy> policies = {
      PlacementPolicy::kSamePod,
      PlacementPolicy::kCrossPod,
      PlacementPolicy::kRackAware,
  };
  /// Attacker distances swept; nullopt = no-attack baseline row.
  std::vector<std::optional<double>> distances_m = {
      std::nullopt, 0.01, 0.05, 0.10, 0.25, 0.50};
  std::uint64_t seed = 0xdeeb;
};

/// The experiment at a given time scale (1.0 = the full 10/40/10 s
/// timeline; tests and benches run fractions of it). Rates, topology and
/// the policy/distance grid are unchanged by `scale`.
ClusterExperimentConfig cluster_experiment_config(double scale = 1.0);

/// The grid's cells in (policy-major, distance-minor) order.
std::vector<CellSpec> cluster_availability_cells(
    const ClusterExperimentConfig& config);

/// Render the grid as the "cluster availability vs. replication policy
/// and attack distance" table.
sim::Table build_cluster_availability_table(
    const ClusterExperimentConfig& config,
    const std::vector<CellResult>& results);

// --- serving (queueing) experiment --------------------------------------
//
// The availability grid answers "does replication ride out the attack";
// this one answers "what does the *service* look like while it does":
// queue growth, shed/timeout counts, the queue-wait vs. service-time
// decomposition, and retry-storm amplification, swept over the serving
// knobs (queue limit, admission policy) with closed-loop clients.

struct ServingExperimentConfig {
  /// The cell every grid point starts from: the availability grid's
  /// cross-pod cell (placement is fixed; the availability grid already
  /// sweeps it) with the serving front-end on.
  CellSpec cell;
  std::vector<std::size_t> queue_limits = {4, 32};
  std::vector<serving::AdmissionPolicy> admissions = {
      serving::AdmissionPolicy::kRejectNew,
      serving::AdmissionPolicy::kDropOldest,
  };
  /// nullopt = no-attack baseline row.
  std::vector<std::optional<double>> distances_m = {std::nullopt, 0.01};
  std::uint64_t seed = 0x5e4e;
};

/// The serving experiment at a time scale (1.0 = the full 10/40/10 s
/// timeline); rates, topology, and the knob grid are unchanged.
ServingExperimentConfig serving_experiment_config(double scale = 1.0);

/// The grid's cells in (queue-limit, admission, distance) lexicographic
/// order.
std::vector<CellSpec> cluster_serving_cells(
    const ServingExperimentConfig& config);

/// Render the grid as the "serving behavior under attack vs. queue
/// limit and admission policy" table.
sim::Table build_cluster_serving_table(const ServingExperimentConfig& config,
                                       const std::vector<CellResult>& results);

}  // namespace deepnote::cluster
