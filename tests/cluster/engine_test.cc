// Sharded cluster engine tests: bit-exact determinism at any wave
// parallelism (including forced sharding), the timeline's time order,
// convergence of the paper-level headline as the epoch shrinks, the
// stepping API, and constructor validation.
#include "cluster/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/experiment.h"
#include "core/attack.h"

namespace deepnote::cluster {
namespace {

struct RunResult {
  std::uint64_t requests = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t focus_total = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  BalancerStats stats;
  unsigned shards = 0;
  std::uint64_t chunked_rounds = 0;
};

/// One attacked cross-pod cell on the engine with the given wave
/// parallelism. min_ops_to_shard = 0 forces every wave through the
/// TaskPool shard path regardless of size. `pods` are insonified from
/// 0.4 s to 1.6 s; the timeline goes to the engine sorted (every on,
/// then every off) or, with `interleaved`, as each pod's on then its off.
RunResult run_attacked_cell(unsigned jobs, std::size_t min_ops_to_shard,
                            const std::vector<std::size_t>& pods = {0},
                            bool interleaved = false) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 5};
  cluster_config.seed = 0x5eed;
  Cluster cluster(cluster_config);

  EngineConfig config;
  config.balancer.policy = PlacementPolicy::kCrossPod;
  config.traffic.arrival_rate_per_s = 400.0;
  config.traffic.duration = sim::Duration::from_seconds(2.0);
  config.traffic.seed = 0xbeef;
  config.jobs = jobs;
  config.min_ops_to_shard = min_ops_to_shard;
  ShardedClusterEngine engine(cluster.topology(), cluster.device_pointers(),
                              config);

  const sim::SimTime attack_on = sim::SimTime::from_seconds(0.4);
  const sim::SimTime attack_off = sim::SimTime::from_seconds(1.6);
  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = attack_on;
  attack.end = attack_off;
  std::vector<TimelineAction> actions;
  std::vector<TimelineAction> offs;
  for (const std::size_t pod : pods) {
    actions.push_back({attack_on, [&cluster, pod, attack](sim::SimTime t) {
                         cluster.apply_attack(pod, t, attack);
                       }});
    (interleaved ? actions : offs)
        .push_back({attack_off, [&cluster, pod](sim::SimTime t) {
                      cluster.stop_attack(pod, t);
                    }});
  }
  for (TimelineAction& off : offs) actions.push_back(std::move(off));

  SloTracker slo(sim::SimTime::zero());
  slo.set_focus(attack_on, attack_off);
  const EngineReport report =
      engine.run(sim::SimTime::zero(), slo, std::move(actions));

  RunResult result;
  result.requests = report.traffic.requests;
  result.succeeded = slo.succeeded();
  result.failed = slo.failed();
  result.focus_total = slo.focus_total();
  result.p50_ns = slo.p50().ns();
  result.p99_ns = slo.p99().ns();
  result.p999_ns = slo.p999().ns();
  result.stats = report.stats;
  result.shards = engine.shards();
  result.chunked_rounds = report.chunked_rounds;
  return result;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.focus_total, b.focus_total);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  EXPECT_EQ(a.p999_ns, b.p999_ns);
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.writes, b.stats.writes);
  EXPECT_EQ(a.stats.read_failovers, b.stats.read_failovers);
  EXPECT_EQ(a.stats.hedged_reads, b.stats.hedged_reads);
  EXPECT_EQ(a.stats.hedge_wins, b.stats.hedge_wins);
  EXPECT_EQ(a.stats.retries_denied, b.stats.retries_denied);
  EXPECT_EQ(a.stats.failed_reads, b.stats.failed_reads);
  EXPECT_EQ(a.stats.failed_writes, b.stats.failed_writes);
  EXPECT_EQ(a.stats.quorum_losses, b.stats.quorum_losses);
  EXPECT_EQ(a.stats.deadline_misses, b.stats.deadline_misses);
  EXPECT_EQ(a.stats.drains, b.stats.drains);
  EXPECT_EQ(a.stats.degrades, b.stats.degrades);
  EXPECT_EQ(a.stats.readmits, b.stats.readmits);
  EXPECT_EQ(a.stats.probes, b.stats.probes);
}

// The partition-invariance contract: which thread executes a node's ops
// never shows in the output. Inline (jobs=1) and forced-sharded
// (jobs=8, every open-loop round routed in chunks and every wave run
// through the pool) runs must agree bit-exactly on every request
// outcome and every control-loop counter.
TEST(ClusterEngine, ShardedRunIsBitIdenticalToInline) {
  const RunResult inline_run = run_attacked_cell(1, 2048);
  const RunResult sharded_run = run_attacked_cell(8, 0);
  EXPECT_EQ(inline_run.shards, 1u);
  EXPECT_GT(sharded_run.shards, 1u);
  EXPECT_EQ(inline_run.chunked_rounds, 0u);
  EXPECT_GT(sharded_run.chunked_rounds, 0u);
  expect_identical(inline_run, sharded_run);
  // The run did real failover work (this is not a trivially-empty cell).
  EXPECT_GT(inline_run.requests, 0u);
  EXPECT_GT(inline_run.stats.read_failovers + inline_run.stats.drains, 0u);
}

TEST(ClusterEngine, ShardCountDoesNotChangeResults) {
  const RunResult two = run_attacked_cell(2, 0);
  const RunResult eight = run_attacked_cell(8, 0);
  expect_identical(two, eight);
}

// The engine orders its own timeline: a two-pod attack handed over as
// on, off, on, off runs exactly like the sorted list. Taken in the order
// given, the second pod's on-action would wait behind the first pod's
// off-action, and pod 1 would miss the attack window.
TEST(ClusterEngine, OrdersItsOwnTimeline) {
  const RunResult sorted = run_attacked_cell(1, 2048, {0, 1});
  const RunResult interleaved =
      run_attacked_cell(1, 2048, {0, 1}, /*interleaved=*/true);
  expect_identical(sorted, interleaved);
  EXPECT_GT(sorted.stats.read_failovers + sorted.stats.drains, 0u);
}

/// The availability grid's own headline cell (scale 0.1, pod 0
/// insonified at 1 cm) under `policy`.
CellSpec headline_cell(PlacementPolicy policy) {
  ClusterExperimentConfig config = cluster_experiment_config(0.1);
  config.policies = {policy};
  config.distances_m = {0.01};
  CellSpec cell = cluster_availability_cells(config).front();
  cell.seed = 0x7e57;
  return cell;
}

/// Attack-window availability of the headline cell at the given epoch
/// length.
double headline_attack_availability(PlacementPolicy policy,
                                    sim::Duration epoch) {
  CellSpec cell = headline_cell(policy);
  cell.engine.epoch = epoch;
  return run_cell(cell).attack_availability;
}

// The epoch is the control loop's reaction quantum, the one fidelity
// trade the engine makes. Shrinking it fifty-fold, toward per-request
// control, must not change the headline: the 50 ms default has
// converged.
TEST(ClusterEngine, ConvergesAsTheEpochShrinks) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kSamePod, PlacementPolicy::kCrossPod}) {
    const double coarse = headline_attack_availability(
        policy, sim::Duration::from_millis(50.0));
    const double fine =
        headline_attack_availability(policy, sim::Duration::from_millis(1.0));
    // 50 ms is the default epoch: the coarse cell is the grid's own.
    EXPECT_DOUBLE_EQ(coarse,
                     run_cell(headline_cell(policy)).attack_availability);
    if (policy == PlacementPolicy::kSamePod) {
      EXPECT_LE(coarse, 0.20);
      EXPECT_LE(fine, 0.20);
    } else {
      EXPECT_GE(coarse, 0.99);
      EXPECT_GE(fine, 0.99);
    }
    EXPECT_NEAR(coarse, fine, 0.01) << placement_name(policy);
  }
}

TEST(ClusterEngine, SteppingApiMatchesOneShotRun) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 2};
  EngineConfig config;
  config.balancer.objects = 2000;
  config.traffic.arrival_rate_per_s = 500.0;
  config.traffic.duration = sim::Duration::from_seconds(1.0);

  Cluster one_shot_cluster(cluster_config);
  ShardedClusterEngine one_shot(one_shot_cluster.topology(),
                                one_shot_cluster.device_pointers(), config);
  SloTracker slo_a(sim::SimTime::zero());
  const EngineReport report_a = one_shot.run(sim::SimTime::zero(), slo_a);

  Cluster stepped_cluster(cluster_config);
  ShardedClusterEngine stepped(stepped_cluster.topology(),
                               stepped_cluster.device_pointers(), config);
  SloTracker slo_b(sim::SimTime::zero());
  stepped.start_run(sim::SimTime::zero(), slo_b);
  std::size_t epochs = 0;
  while (stepped.step()) ++epochs;
  const EngineReport report_b = stepped.finish();

  // ~1 s of traffic at a 50 ms epoch: the loop really stepped.
  EXPECT_GE(epochs, 15u);
  EXPECT_EQ(report_a.traffic.requests, report_b.traffic.requests);
  EXPECT_EQ(slo_a.succeeded(), slo_b.succeeded());
  EXPECT_EQ(slo_a.p99().ns(), slo_b.p99().ns());
}

TEST(ClusterEngine, RejectsDegenerateConfig) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 1};
  Cluster cluster(cluster_config);

  EngineConfig config;
  config.traffic.arrival_rate_per_s = 0.0;
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
  config = {};
  config.epoch = sim::Duration::from_seconds(0.0);
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
  config = {};
  config.zipf = std::make_shared<const ZipfAliasSampler>(123, 0.5);
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
  config = {};
  config.balancer.write_quorum = 4;  // > replication 3
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::cluster
