// Hybrid tiering experiment tests: the tentpole headline (the same
// same-pod attack that collapses a pure-HDD cell leaves the hybrid cell
// above 99%), the duration axis (longer attacks do not erode it),
// bit-exact determinism across worker counts, a golden-CSV pin, and a
// write-heavy same-pod cell that drives the flash tiers' garbage
// collector through live-page relocation.
#include "cluster/hybrid_experiment.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "golden_table.h"

namespace deepnote::cluster {
namespace {

constexpr double kScale = 0.2;  // 2 s warmup / 8 s attack / 2 s cooldown

const HybridExperimentConfig& config() {
  static const HybridExperimentConfig config =
      hybrid_experiment_config(kScale);
  return config;
}

const std::vector<CellResult>& cached_results() {
  static const std::vector<CellResult> results =
      run_grid(hybrid_availability_cells(config()), config().seed, 0);
  return results;
}

const CellResult& find_row(NodeType node_type,
                           std::optional<double> distance_m,
                           double multiplier) {
  for (const CellResult& row : cached_results()) {
    if (row.cell.node_type == node_type &&
        attack_distance(row.cell) == distance_m &&
        attack_multiplier(config(), row.cell) == multiplier) {
      return row;
    }
  }
  static CellResult missing;
  ADD_FAILURE() << "row not found";
  return missing;
}

TEST(HybridExperiment, BaselinesServeCleanlyOnBothNodeTypes) {
  for (const NodeType node_type : {NodeType::kHdd, NodeType::kHybrid}) {
    const CellResult& row = find_row(node_type, std::nullopt, 1.0);
    EXPECT_GE(row.availability, 0.999) << node_type_name(node_type);
    EXPECT_GT(row.requests, 0u);
  }
  // A quiet hybrid node never leaves kNormal: no flash-only ops, no
  // probes, nothing to drain.
  const CellResult& hybrid = find_row(NodeType::kHybrid, std::nullopt, 1.0);
  EXPECT_EQ(hybrid.flash_only_ops, 0u);
  EXPECT_EQ(hybrid.probes, 0u);
  EXPECT_EQ(hybrid.dirty_pages_left, 0u);
}

// The headline: same-pod placement puts every replica of every object
// inside the attacked enclosure, so the pure-HDD cell collapses — and
// the hybrid cell, with no spinning medium on its serving path, rides
// the same attack out above 99%.
TEST(HybridExperiment, FlashTierTurnsAnOutageIntoANonEvent) {
  const CellResult& hdd = find_row(NodeType::kHdd, 0.01, 1.0);
  const CellResult& hybrid = find_row(NodeType::kHybrid, 0.01, 1.0);

  EXPECT_LE(hdd.attack_availability, 0.20) << "pure HDD should collapse";
  EXPECT_GE(hybrid.attack_availability, 0.99);

  // The hybrid actually fought: HDD failures absorbed by the mirror,
  // tier flips to flash-only, probes watching for the all-clear.
  EXPECT_GT(hybrid.absorbed_errors, 0u);
  EXPECT_GT(hybrid.flash_only_ops, 0u);
  EXPECT_GT(hybrid.probes, 0u);
  // Pure-HDD rows carry no flash telemetry at all.
  EXPECT_EQ(hdd.absorbed_errors, 0u);
  EXPECT_EQ(hdd.flash_only_ops, 0u);
}

// The duration axis: the flash tier holds for as long as the heads stay
// parked — doubling the attack window does not erode availability.
TEST(HybridExperiment, LongerAttacksDoNotErodeTheHybrid) {
  for (const double multiplier : {0.5, 1.0, 2.0}) {
    const CellResult& row = find_row(NodeType::kHybrid, 0.01, multiplier);
    EXPECT_GE(row.attack_availability, 0.99) << "multiplier " << multiplier;
  }
  // The pure-HDD cell stays collapsed at every length instead.
  for (const double multiplier : {0.5, 1.0, 2.0}) {
    const CellResult& row = find_row(NodeType::kHdd, 0.01, multiplier);
    EXPECT_LE(row.attack_availability, 0.20) << "multiplier " << multiplier;
  }
}

TEST(HybridExperiment, HybridNeverServesWorseThanPureHdd) {
  for (const double distance : {0.01, 0.05}) {
    for (const double multiplier : {0.5, 1.0, 2.0}) {
      const CellResult& hdd = find_row(NodeType::kHdd, distance,
                                           multiplier);
      const CellResult& hybrid = find_row(NodeType::kHybrid, distance,
                                              multiplier);
      EXPECT_GE(hybrid.attack_availability, hdd.attack_availability)
          << "distance " << distance << " multiplier " << multiplier;
    }
  }
}

TEST(HybridExperiment, WearStaysInsideTheSmartScale) {
  for (const CellResult& row : cached_results()) {
    EXPECT_GE(row.media_wearout, 1);
    EXPECT_LE(row.media_wearout, 100);
    if (row.cell.node_type == NodeType::kHdd) {
      EXPECT_EQ(row.media_wearout, 100);  // no flash on board
    }
  }
}

TEST(HybridExperiment, DeterministicAcrossJobCounts) {
  const std::vector<CellSpec> cells = hybrid_availability_cells(config());
  EXPECT_EQ(build_hybrid_availability_table(config(),
                                            run_grid(cells, config().seed, 1))
                .to_csv(),
            build_hybrid_availability_table(config(),
                                            run_grid(cells, config().seed, 4))
                .to_csv());
}

TEST(HybridExperiment, GoldenHybridAvailabilityTable) {
  diff_against_golden(
      build_hybrid_availability_table(config(), cached_results()),
      "hybrid_availability.csv");
}

// 1,000 hybrid nodes (200 pods x 5), same-pod R=3, half writes at
// 8,000 req/s for 30 s; every third pod insonified at 650 Hz / 140 dB /
// 1 cm from 10 s to 20 s. Same-pod placement keeps each object's writes
// on one pod's tiers, so GC victims still hold live pages and
// relocation opens blocks of its own. The host write must keep using
// such a block, not abandon it: an abandoned open block is never a GC
// victim, and that leak ends with garbage collection spinning forever.
TEST(HybridExperiment, SamePodWriteHeavyCellFinishes) {
  CellSpec spec;
  spec.topology = {.pods = 200, .bays_per_pod = 5};
  spec.node_type = NodeType::kHybrid;
  spec.engine.balancer.policy = PlacementPolicy::kSamePod;
  spec.engine.balancer.replication = 3;
  spec.engine.traffic.arrival_rate_per_s = 8000.0;
  spec.engine.traffic.read_fraction = 0.5;
  spec.warmup = sim::Duration::from_seconds(10.0);
  spec.attack = sim::Duration::from_seconds(10.0);
  spec.tail = sim::Duration::from_seconds(10.0);
  for (std::size_t pod = 0; pod < spec.topology.pods; pod += 3) {
    spec.attacked_pods.push_back(pod);
  }
  spec.seed = 1;
  const CellResult result = run_cell(spec);

  EXPECT_GT(result.writes, 0u);
  EXPECT_GE(result.availability, 0.99);
  EXPECT_LE(result.max_open_blocks, 1u);
  EXPECT_GT(result.relocated_pages, 0u) << "GC never relocated a live page";
}

}  // namespace
}  // namespace deepnote::cluster
