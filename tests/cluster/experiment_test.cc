// Cluster availability experiment tests: the paper-level headline
// (placement decides whether a pod-level acoustic attack is an outage),
// bit-exact determinism across worker counts, and a golden-CSV pin.
#include "cluster/experiment.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "golden_table.h"

namespace deepnote::cluster {
namespace {

constexpr double kScale = 0.2;  // 2 s warmup / 8 s attack / 2 s cooldown

const ClusterExperimentConfig& config() {
  static const ClusterExperimentConfig config =
      cluster_experiment_config(kScale);
  return config;
}

const std::vector<CellResult>& cached_results() {
  static const std::vector<CellResult> results =
      run_grid(cluster_availability_cells(config()), config().seed, 0);
  return results;
}

const CellResult& find_row(PlacementPolicy policy,
                           std::optional<double> distance_m) {
  for (const CellResult& row : cached_results()) {
    if (row.cell.engine.balancer.policy == policy &&
        attack_distance(row.cell) == distance_m) {
      return row;
    }
  }
  static CellResult missing;
  ADD_FAILURE() << "row not found";
  return missing;
}

TEST(ClusterExperiment, BaselinesServeCleanly) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kSamePod, PlacementPolicy::kCrossPod,
        PlacementPolicy::kRackAware}) {
    const CellResult& row = find_row(policy, std::nullopt);
    EXPECT_GE(row.availability, 0.999) << placement_name(policy);
    EXPECT_GT(row.requests, 0u);
  }
}

// The headline: under a point-blank single-pod 650 Hz / 140 dB attack,
// replication policy is the difference between business-as-usual and an
// outage. Cross-pod placement loses at most one replica per object and
// keeps serving >= 99%; the dense same-pod layout loses every replica
// of every object at once and collapses (what little survives is writes
// absorbed by drive write caches).
TEST(ClusterExperiment, PlacementDecidesAvailabilityUnderAttack) {
  const CellResult& same_pod = find_row(PlacementPolicy::kSamePod, 0.01);
  const CellResult& cross_pod = find_row(PlacementPolicy::kCrossPod, 0.01);
  const CellResult& rack_aware = find_row(PlacementPolicy::kRackAware, 0.01);

  EXPECT_LE(same_pod.attack_availability, 0.20) << "same-pod should collapse";
  EXPECT_GE(cross_pod.attack_availability, 0.99);
  EXPECT_GE(rack_aware.attack_availability, 0.99);

  // The survivors actually had to work for it: reads failed over and
  // the detector pulled attacked nodes from rotation.
  EXPECT_GT(cross_pod.read_failovers + cross_pod.drains, 0u);
  EXPECT_GT(same_pod.failed, 100u);
}

TEST(ClusterExperiment, AttackIsLocalizedToItsWindow) {
  const CellResult& cross_pod = find_row(PlacementPolicy::kCrossPod, 0.01);
  // Whole-run availability includes warmup + cooldown and must not be
  // below the attack window's (recovery works).
  EXPECT_GE(cross_pod.availability, cross_pod.attack_availability);
}

TEST(ClusterExperiment, DistanceAttenuatesTheAttack) {
  const CellResult& near = find_row(PlacementPolicy::kSamePod, 0.01);
  const CellResult& far = find_row(PlacementPolicy::kSamePod, 0.25);
  EXPECT_LT(near.attack_availability, far.attack_availability);
  EXPECT_GE(far.attack_availability, 0.99);
}

TEST(ClusterExperiment, DeterministicAcrossJobCounts) {
  const std::vector<CellSpec> cells = cluster_availability_cells(config());
  EXPECT_EQ(build_cluster_availability_table(
                config(), run_grid(cells, config().seed, 1))
                .to_csv(),
            build_cluster_availability_table(
                config(), run_grid(cells, config().seed, 4))
                .to_csv());
}

TEST(ClusterExperiment, GoldenAvailabilityTable) {
  diff_against_golden(build_cluster_availability_table(config(),
                                                       cached_results()),
                      "cluster_availability.csv");
}

// --- serving (queueing) experiment --------------------------------------

const ServingExperimentConfig& serving_config() {
  static const ServingExperimentConfig config =
      serving_experiment_config(kScale);
  return config;
}

const std::vector<CellResult>& cached_serving_results() {
  static const std::vector<CellResult> results = run_grid(
      cluster_serving_cells(serving_config()), serving_config().seed, 0);
  return results;
}

const CellResult& find_serving_row(std::size_t queue_limit,
                                   serving::AdmissionPolicy admission,
                                   std::optional<double> distance_m) {
  for (const CellResult& row : cached_serving_results()) {
    const serving::ServerConfig& server = row.cell.engine.serving.server;
    if (server.queue_limit == queue_limit && server.admission == admission &&
        attack_distance(row.cell) == distance_m) {
      return row;
    }
  }
  static CellResult missing;
  ADD_FAILURE() << "serving row not found";
  return missing;
}

TEST(ServingExperiment, BaselinesServeWithoutShedding) {
  for (const std::size_t queue_limit : serving_config().queue_limits) {
    for (const serving::AdmissionPolicy admission :
         serving_config().admissions) {
      const CellResult& row =
          find_serving_row(queue_limit, admission, std::nullopt);
      EXPECT_GE(row.availability, 0.999);
      EXPECT_EQ(row.shed_requests + row.timed_out_requests, 0u);
      EXPECT_GT(row.requests, 0u);
    }
  }
}

// The serving-mode headline: availability survives the attack (cross-pod
// replication covers for the attacked pod), but the queueing telemetry
// shows what the availability number hides — queues pinned at the
// admission limit and legs shed or expiring on the attacked nodes.
TEST(ServingExperiment, AttackStrainsTheQueuesNotTheHeadline) {
  const CellResult& quiet = find_serving_row(
      4, serving::AdmissionPolicy::kRejectNew, std::nullopt);
  const CellResult& attacked =
      find_serving_row(4, serving::AdmissionPolicy::kRejectNew, 0.01);

  EXPECT_GE(attacked.attack_availability, 0.95);
  EXPECT_GT(attacked.legs_shed + attacked.legs_timed_out,
            quiet.legs_shed + quiet.legs_timed_out);
  EXPECT_GE(attacked.attack_max_queue_depth, quiet.max_queue_depth);
  EXPECT_GT(attacked.read_failovers, quiet.read_failovers);
}

// A deeper queue converts sheds into waiting: fewer refused legs, longer
// queue-wait tail, at this load without hurting availability.
TEST(ServingExperiment, QueueDepthTradesSheddingForWaiting) {
  const CellResult& shallow =
      find_serving_row(4, serving::AdmissionPolicy::kRejectNew, 0.01);
  const CellResult& deep =
      find_serving_row(32, serving::AdmissionPolicy::kRejectNew, 0.01);
  EXPECT_LT(deep.legs_shed, shallow.legs_shed);
  EXPECT_GE(deep.attack_availability, shallow.attack_availability - 0.01);
}

TEST(ServingExperiment, DeterministicAcrossJobCounts) {
  const std::vector<CellSpec> cells = cluster_serving_cells(serving_config());
  EXPECT_EQ(build_cluster_serving_table(
                serving_config(), run_grid(cells, serving_config().seed, 1))
                .to_csv(),
            build_cluster_serving_table(
                serving_config(), run_grid(cells, serving_config().seed, 4))
                .to_csv());
}

TEST(ServingExperiment, GoldenServingTable) {
  diff_against_golden(
      build_cluster_serving_table(serving_config(), cached_serving_results()),
      "cluster_serving.csv");
}

}  // namespace
}  // namespace deepnote::cluster
