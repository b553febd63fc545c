// Hybrid tiering experiment tests: the tentpole headline (the same
// same-pod attack that collapses a pure-HDD cell leaves the hybrid cell
// above 99%), the duration axis (longer attacks do not erode it),
// bit-exact determinism across worker counts, a golden-CSV pin, and a
// write-heavy same-pod cell that drives the flash tiers' garbage
// collector through live-page relocation.
#include "cluster/hybrid_experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cell.h"

namespace deepnote::cluster {
namespace {

constexpr double kScale = 0.2;  // 2 s warmup / 8 s attack / 2 s cooldown

const std::vector<HybridTrialRow>& cached_rows() {
  static const std::vector<HybridTrialRow> rows =
      run_hybrid_experiment(hybrid_experiment_config(kScale));
  return rows;
}

const HybridTrialRow& find_row(NodeType node_type,
                               std::optional<double> distance_m,
                               double multiplier) {
  for (const HybridTrialRow& row : cached_rows()) {
    if (row.node_type == node_type && row.distance_m == distance_m &&
        row.attack_multiplier == multiplier) {
      return row;
    }
  }
  static HybridTrialRow missing;
  ADD_FAILURE() << "row not found";
  return missing;
}

TEST(HybridExperiment, BaselinesServeCleanlyOnBothNodeTypes) {
  for (const NodeType node_type : {NodeType::kHdd, NodeType::kHybrid}) {
    const HybridTrialRow& row = find_row(node_type, std::nullopt, 1.0);
    EXPECT_GE(row.availability, 0.999) << node_type_name(node_type);
    EXPECT_GT(row.requests, 0u);
  }
  // A quiet hybrid node never leaves kNormal: no flash-only ops, no
  // probes, nothing to drain.
  const HybridTrialRow& hybrid = find_row(NodeType::kHybrid, std::nullopt, 1.0);
  EXPECT_EQ(hybrid.flash_only_ops, 0u);
  EXPECT_EQ(hybrid.probes, 0u);
  EXPECT_EQ(hybrid.dirty_pages_left, 0u);
}

// The headline: same-pod placement puts every replica of every object
// inside the attacked enclosure, so the pure-HDD cell collapses — and
// the hybrid cell, with no spinning medium on its serving path, rides
// the same attack out above 99%.
TEST(HybridExperiment, FlashTierTurnsAnOutageIntoANonEvent) {
  const HybridTrialRow& hdd = find_row(NodeType::kHdd, 0.01, 1.0);
  const HybridTrialRow& hybrid = find_row(NodeType::kHybrid, 0.01, 1.0);

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
    const HybridTrialRow& row = find_row(NodeType::kHybrid, 0.01, multiplier);
    EXPECT_GE(row.attack_availability, 0.99) << "multiplier " << multiplier;
  }
  // The pure-HDD cell stays collapsed at every length instead.
  for (const double multiplier : {0.5, 1.0, 2.0}) {
    const HybridTrialRow& row = find_row(NodeType::kHdd, 0.01, multiplier);
    EXPECT_LE(row.attack_availability, 0.20) << "multiplier " << multiplier;
  }
}

TEST(HybridExperiment, HybridNeverServesWorseThanPureHdd) {
  for (const double distance : {0.01, 0.05}) {
    for (const double multiplier : {0.5, 1.0, 2.0}) {
      const HybridTrialRow& hdd = find_row(NodeType::kHdd, distance,
                                           multiplier);
      const HybridTrialRow& hybrid = find_row(NodeType::kHybrid, distance,
                                              multiplier);
      EXPECT_GE(hybrid.attack_availability, hdd.attack_availability)
          << "distance " << distance << " multiplier " << multiplier;
    }
  }
}

TEST(HybridExperiment, WearStaysInsideTheSmartScale) {
  for (const HybridTrialRow& row : cached_rows()) {
    EXPECT_GE(row.media_wearout, 1);
    EXPECT_LE(row.media_wearout, 100);
    if (row.node_type == NodeType::kHdd) {
      EXPECT_EQ(row.media_wearout, 100);  // no flash on board
    }
  }
}

TEST(HybridExperiment, DeterministicAcrossJobCounts) {
  HybridExperimentConfig config = hybrid_experiment_config(kScale);
  config.jobs = 1;
  const auto serial = run_hybrid_experiment(config);
  config.jobs = 4;
  const auto parallel = run_hybrid_experiment(config);
  const std::string csv_serial =
      build_hybrid_availability_table(config, serial).to_csv();
  const std::string csv_parallel =
      build_hybrid_availability_table(config, parallel).to_csv();
  EXPECT_EQ(csv_serial, csv_parallel);
}

std::string golden_path(const std::string& name) {
  return std::string(DEEPNOTE_GOLDEN_DIR) + "/" + name;
}

void diff_against_golden(const sim::Table& table, const std::string& name) {
  const std::string rendered = table.to_csv();
  const std::string path = golden_path(name);
  if (std::getenv("DEEPNOTE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::printf("[golden updated: %s]\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate it with DEEPNOTE_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered)
      << "table drifted from " << path
      << "\nIf intentional, regenerate with DEEPNOTE_UPDATE_GOLDEN=1 "
         "and review the CSV diff.";
}

TEST(HybridExperiment, GoldenHybridAvailabilityTable) {
  const HybridExperimentConfig config = hybrid_experiment_config(kScale);
  diff_against_golden(
      build_hybrid_availability_table(config, cached_rows()),
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
  spec.policy = PlacementPolicy::kSamePod;
  spec.replication = 3;
  spec.traffic.arrival_rate_per_s = 8000.0;
  spec.traffic.read_fraction = 0.5;
  spec.warmup = sim::Duration::from_seconds(10.0);
  spec.attack = sim::Duration::from_seconds(10.0);
  spec.tail = sim::Duration::from_seconds(10.0);
  spec.seed = 1;
  ExperimentCell cell(spec);
  // The engine takes actions sorted by time: every on before any off.
  std::vector<TimelineAction> actions;
  std::vector<TimelineAction> offs;
  for (std::size_t pod = 0; pod < spec.topology.pods; pod += 3) {
    std::vector<TimelineAction> on_off =
        cell.pod_attack(pod, 650.0, 140.0, 0.01);
    actions.push_back(std::move(on_off[0]));
    offs.push_back(std::move(on_off[1]));
  }
  for (TimelineAction& off : offs) actions.push_back(std::move(off));
  ShardedClusterEngine engine(cell.cluster.topology(),
                              cell.cluster.device_pointers(), cell.engine);
  const EngineReport report =
      engine.run(sim::SimTime::zero(), cell.slo, std::move(actions));

  EXPECT_GT(report.traffic.writes, 0u);
  EXPECT_GE(cell.slo.availability(), 0.99);
  std::uint64_t relocated = 0;
  for (NodeId id = 0; id < cell.cluster.num_nodes(); ++id) {
    const storage::Ftl& ftl = cell.cluster.hybrid(id)->ftl();
    relocated += ftl.stats().relocated_pages;
    EXPECT_LE(ftl.open_blocks(), 1u) << "node " << id;
  }
  EXPECT_GT(relocated, 0u) << "GC never relocated a live page";
}

}  // namespace
}  // namespace deepnote::cluster
