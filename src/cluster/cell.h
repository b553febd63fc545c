// One experiment cell, assembled the same way for every grid.
//
// The availability, serving, overload and hybrid grids all run cells of
// one shape: a fresh Cluster serves warmup traffic, an attack window,
// then a tail, on the engine, with the SLO tracker focused on the attack
// window. ExperimentCell builds that shared part from a CellSpec — the
// cluster, the traffic timeline and seeds, the focus window and the
// base EngineConfig — so each experiment keeps only its grid axes, its
// engine-mode fields, its attack lowering and its row mapping.
//
// A cell is a pure function of its seed: the cluster draws
// trial_seed(seed, 0) and the traffic trial_seed(seed, 1), so grids
// fanned across the trial pool stay byte-identical at any
// DEEPNOTE_JOBS.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/slo.h"
#include "cluster/traffic.h"

namespace deepnote::cluster {

struct CellSpec {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;
  NodeType node_type = NodeType::kHdd;
  HybridConfig hybrid;  ///< flash tier, used when node_type == kHybrid
  PlacementPolicy policy = PlacementPolicy::kCrossPod;
  std::size_t replication = 3;
  BalancerConfig balancer;  ///< policy and replication come from above
  TrafficConfig traffic;    ///< duration and seed are set by the cell
  sim::Duration warmup = sim::Duration::zero();  ///< traffic before the attack
  sim::Duration attack = sim::Duration::zero();  ///< the SLO focus window
  sim::Duration tail = sim::Duration::zero();    ///< traffic after it
  std::uint64_t seed = 0;
  /// Alias table shared across cells (the engine builds one when null).
  std::shared_ptr<const ZipfAliasSampler> zipf;
  unsigned jobs = 1;  ///< the engine's wave parallelism
};

struct ExperimentCell {
  explicit ExperimentCell(const CellSpec& spec);

  // Pinned: the attack actions hold a pointer to `cluster`.
  ExperimentCell(const ExperimentCell&) = delete;
  ExperimentCell& operator=(const ExperimentCell&) = delete;

  /// Insonify `pod` for the attack window: returns the on-action at
  /// attack_on, then the off-action at attack_off.
  std::vector<TimelineAction> pod_attack(std::size_t pod, double frequency_hz,
                                         double spl_air_db,
                                         double distance_m);

  Cluster cluster;
  /// Routing, traffic, detector, jobs and Zipf table set; experiments
  /// add their mode fields (serving, breakers) before building the
  /// engine.
  EngineConfig engine;
  sim::SimTime attack_on;
  sim::SimTime attack_off;
  SloTracker slo;  ///< focused on [attack_on, attack_off)
};

}  // namespace deepnote::cluster
