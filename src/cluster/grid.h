// One scaffold for every cluster grid: how a cell is built, attacked,
// run and measured.
//
// The availability, serving, overload and hybrid grids all run cells of
// one shape: a fresh Cluster serves warmup traffic, an attack window,
// then a tail, on the sharded engine, with the SLO tracker focused on
// the attack window and the attacked pods insonified for exactly that
// window. A CellSpec holds everything a cell varies; run_cell runs one
// and returns a CellResult with the cell and every number a grid table
// or a test reads; run_grid fans a list of cells across the trial pool.
// Each grid (experiment.h, overload_experiment.h, hybrid_experiment.h)
// keeps only its config, the cells it lists and its table.
//
// A cell is a pure function of its spec: the cluster draws
// trial_seed(seed, 0) and the traffic trial_seed(seed, 1), and run_grid
// seeds cell i with trial_seed(grid seed, i), so a grid stays
// byte-identical at any DEEPNOTE_JOBS.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "sim/table.h"

namespace deepnote::cluster {

struct CellSpec {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod (default 3 x 5)
  NodeType node_type = NodeType::kHdd;  ///< hybrid nodes get HybridConfig{}
  /// Placement and replication (in `balancer`), traffic, serving mode,
  /// breakers, epoch, wave parallelism and the alias table. The cell
  /// sets the traffic duration and seed and the detector.
  EngineConfig engine;
  sim::Duration warmup = sim::Duration::zero();  ///< traffic before the attack
  sim::Duration attack = sim::Duration::zero();  ///< the SLO focus window
  sim::Duration tail = sim::Duration::zero();    ///< traffic after it
  /// Pods insonified for the attack window; empty = a quiet baseline.
  std::vector<std::size_t> attacked_pods;
  double distance_m = 0.01;
  double frequency_hz = 650.0;
  double spl_air_db = 140.0;
  std::uint64_t seed = 0;
};

/// The cell the availability, serving and hybrid grids start from, at a
/// time scale (1.0 = 10 s warmup, 40 s attack, 10 s tail): 400 req/s on
/// 3 pods x 5 bays, cross-pod R=3, pod 0 insonified at 650 Hz / 140 dB
/// from 1 cm. 400 req/s keeps the dense same-pod layout below drive
/// saturation at baseline (~70 ops/s/bay against ~125 ops/s of
/// seek-bound capacity), so availability loss is attack signal, not
/// queueing.
CellSpec pod_attack_cell(double scale);

/// The attacker's distance, or nullopt for a quiet baseline cell: the
/// distance axis the availability, serving and hybrid grids sweep.
std::optional<double> attack_distance(const CellSpec& spec);
/// Move the attacker to `distance_m`; nullopt clears the attacked pods.
void set_attack_distance(CellSpec& spec, std::optional<double> distance_m);
/// The "Distance (cm)" column: centimetres, or a dash on a baseline.
void distance_cell(sim::Table& table, const CellSpec& spec);

struct CellResult {
  CellSpec cell;  ///< the cell as run, seed included
  std::uint64_t requests = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  double availability = 1.0;         ///< whole run
  double attack_availability = 1.0;  ///< attack-window arrivals only
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  std::uint64_t read_failovers = 0;
  std::uint64_t drains = 0;

  /// Serving mode (all zero in immediate dispatch): the latency
  /// decomposition across served and failed device legs, request-level
  /// failure classes (a request fails only once every replica path is
  /// exhausted) and the leg-level counts underneath them.
  double queue_wait_p99_ms = 0.0;
  double service_p99_ms = 0.0;
  std::uint64_t shed_requests = 0;
  std::uint64_t timed_out_requests = 0;
  std::uint64_t legs_shed = 0;
  std::uint64_t legs_timed_out = 0;
  std::uint64_t legs_cancelled = 0;
  std::uint64_t attack_shed = 0;  ///< attack-window arrivals only
  std::uint64_t attack_timed_out = 0;
  std::uint64_t client_retries = 0;  ///< retry-storm amplification
  std::uint64_t max_queue_depth = 0;
  std::uint64_t attack_max_queue_depth = 0;
  std::uint64_t retry_budget_spent = 0;
  std::uint64_t retry_budget_denied = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_short_circuits = 0;

  /// Arrivals after attack-off, read off the SLO's fixed windows.
  double post_availability = 1.0;
  /// Attack-off to the end of the first post-attack window at or above
  /// kRecoveredAvailability; `recovered` false means it never happened
  /// and recovery_s holds the whole tail.
  bool recovered = false;
  double recovery_s = 0.0;
  /// Post-attack windows with traffic below kCollapsedAvailability (the
  /// metastable signature is a long run of them).
  std::uint64_t collapsed_windows = 0;

  /// Flash tiers summed over the fleet (all zero on HDD cells).
  std::uint64_t absorbed_errors = 0;
  std::uint64_t flash_only_ops = 0;
  std::uint64_t drained_pages = 0;
  std::uint64_t probes = 0;
  std::uint64_t dirty_pages_left = 0;  ///< un-drained at end of run
  std::uint64_t relocated_pages = 0;   ///< live pages moved by FTL GC
  std::uint64_t max_open_blocks = 0;   ///< most open FTL blocks on a node
  /// Worst SMART 177 (media wearout) normalized value across the fleet.
  int media_wearout = 100;
};

/// Post-attack SLO windows at or above this end the recovery clock;
/// below kCollapsedAvailability they count as collapsed.
inline constexpr double kRecoveredAvailability = 0.99;
inline constexpr double kCollapsedAvailability = 0.5;

CellResult run_cell(const CellSpec& spec);

/// Run `cells` on the trial pool (`jobs` 0 = $DEEPNOTE_JOBS / all
/// cores), cell i seeded with trial_seed(seed, i). Cells without an
/// alias table share one built for the first cell's keyspace and skew
/// when theirs match it. Results come back in `cells` order.
std::vector<CellResult> run_grid(const std::vector<CellSpec>& cells,
                                 std::uint64_t seed, unsigned jobs);

}  // namespace deepnote::cluster
