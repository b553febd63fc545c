// The hybrid-tiering availability experiment: node type (pure HDD vs.
// flash-fronted hybrid) x attacker distance x attack duration, under the
// WORST placement — same-pod, every replica of every object inside the
// attacked enclosure.
//
// The availability grid (experiment.h) showed placement is one way out:
// spread replicas across pods and a pod-level attack costs one replica.
// This grid shows the orthogonal way out when placement cannot save you:
// a flash tier with no spinning medium to disturb. The headline the
// table pins down: the same attack that drops a same-pod pure-HDD cell
// below 15% availability leaves the hybrid cell above 99%, and longer
// attacks (the duration axis) do not change that — the flash tier holds
// for as long as the heads stay parked, then drains its dirty pages
// back to the HDDs after the field clears.
//
// Each cell is one independent trial on the sharded engine, seeded by
// sim::trial_seed and fanned across the trial pool — bit-identical at
// any DEEPNOTE_JOBS setting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/traffic.h"
#include "sim/table.h"

namespace deepnote::cluster {

struct HybridExperimentConfig {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod (default 3 x 5)
  std::vector<NodeType> node_types = {NodeType::kHdd, NodeType::kHybrid};
  /// Attacker distances swept; nullopt = no-attack baseline row (run at
  /// multiplier 1.0 only — baselines do not vary with attack length).
  std::vector<std::optional<double>> distances_m = {std::nullopt, 0.01,
                                                    0.05};
  /// Attack-window lengths as multiples of `attack_window`.
  std::vector<double> attack_multipliers = {0.5, 1.0, 2.0};
  double frequency_hz = 650.0;
  double spl_air_db = 140.0;
  std::size_t attacked_pod = 0;

  /// Same-pod on purpose: the placement experiment already covers
  /// spreading replicas; this grid isolates what the flash tier buys
  /// when every replica shares the blast radius.
  PlacementPolicy policy = PlacementPolicy::kSamePod;
  std::size_t replication = 3;
  BalancerConfig balancer;  ///< policy/replication overridden per cell
  TrafficConfig traffic;    ///< duration overridden per trial
  HybridConfig hybrid;      ///< flash tier for the hybrid rows

  sim::Duration warmup = sim::Duration::from_seconds(10.0);
  sim::Duration attack_window = sim::Duration::from_seconds(40.0);
  sim::Duration cooldown = sim::Duration::from_seconds(10.0);

  std::uint64_t seed = 0xf1a8;
  unsigned jobs = 0;  ///< 0 = $DEEPNOTE_JOBS / all cores
};

/// The experiment at a time scale (1.0 = the full 10/40/10 s timeline);
/// rates, topology, and the grid are unchanged by `scale`.
HybridExperimentConfig hybrid_experiment_config(double scale = 1.0);

struct HybridTrialRow {
  NodeType node_type = NodeType::kHdd;
  std::optional<double> distance_m;
  double attack_multiplier = 1.0;

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  double availability = 1.0;
  double attack_availability = 1.0;  ///< attack-window arrivals only
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t read_failovers = 0;
  std::uint64_t drains = 0;

  /// Flash-tier telemetry summed over the fleet (all zero on HDD rows).
  std::uint64_t absorbed_errors = 0;
  std::uint64_t flash_only_ops = 0;
  std::uint64_t drained_pages = 0;
  std::uint64_t probes = 0;
  std::uint64_t dirty_pages_left = 0;  ///< un-drained at end of run
  /// Worst SMART 177 (media wearout) normalized value across the fleet.
  int media_wearout = 100;
};

/// One grid cell on the sharded epoch engine.
HybridTrialRow run_hybrid_cell(const HybridExperimentConfig& config,
                               NodeType node_type,
                               std::optional<double> distance_m,
                               double attack_multiplier,
                               std::uint64_t cell_seed,
                               std::shared_ptr<const ZipfAliasSampler> zipf =
                                   nullptr,
                               unsigned engine_jobs = 1);

/// Run the full grid; rows in (node type, distance, multiplier) order,
/// with baseline (no-attack) rows only at multiplier 1.0.
std::vector<HybridTrialRow> run_hybrid_experiment(
    const HybridExperimentConfig& config);

/// Render the grid as the "hybrid tiering availability vs. node type,
/// distance and attack duration" table.
sim::Table build_hybrid_availability_table(
    const HybridExperimentConfig& config,
    const std::vector<HybridTrialRow>& rows);

}  // namespace deepnote::cluster
