// Sharded cluster engine tests: bit-exact determinism at any wave
// parallelism (including forced sharding), convergence of the
// paper-level headline as the epoch shrinks, the stepping API, and
// constructor validation.
#include "cluster/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/cell.h"
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
};

/// One attacked cross-pod cell on the engine with the given wave
/// parallelism. min_ops_to_shard = 0 forces every wave through the
/// TaskPool shard path regardless of size.
RunResult run_attacked_cell(unsigned jobs, std::size_t min_ops_to_shard) {
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
  actions.push_back({attack_on, [&cluster, attack](sim::SimTime t) {
                       cluster.apply_attack(0, t, attack);
                     }});
  actions.push_back({attack_off, [&cluster](sim::SimTime t) {
                       cluster.stop_attack(0, t);
                     }});

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
// (jobs=8, every wave through the pool) runs must agree bit-exactly on
// every request outcome and every control-loop counter.
TEST(ClusterEngine, ShardedRunIsBitIdenticalToInline) {
  const RunResult inline_run = run_attacked_cell(1, 2048);
  const RunResult sharded_run = run_attacked_cell(8, 0);
  EXPECT_EQ(inline_run.shards, 1u);
  EXPECT_GT(sharded_run.shards, 1u);
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

/// Attack-window availability of the paper's headline cell (scale 0.1,
/// pod 0 insonified at 1 cm), built through the shared cell builder at
/// the given epoch length.
double headline_attack_availability(PlacementPolicy policy,
                                    sim::Duration epoch) {
  const ClusterExperimentConfig config = cluster_experiment_config(0.1);
  CellSpec spec;
  spec.scenario = config.scenario;
  spec.topology = config.topology;
  spec.policy = policy;
  spec.replication = config.replication;
  spec.balancer = config.balancer;
  spec.traffic = config.traffic;
  spec.warmup = config.warmup;
  spec.attack = config.attack_window;
  spec.tail = config.cooldown;
  spec.seed = 0x7e57;
  ExperimentCell cell(spec);
  cell.engine.epoch = epoch;
  ShardedClusterEngine engine(cell.cluster.topology(),
                              cell.cluster.device_pointers(), cell.engine);
  engine.run(sim::SimTime::zero(), cell.slo,
             cell.pod_attack(config.attacked_pod, config.frequency_hz,
                             config.spl_air_db, 0.01));
  return cell.slo.focus_availability();
}

// The epoch is the control loop's reaction quantum, the one fidelity
// trade the engine makes. Shrinking it fifty-fold, toward per-request
// control, must not change the headline: the 50 ms default has
// converged.
TEST(ClusterEngine, ConvergesAsTheEpochShrinks) {
  const ClusterExperimentConfig config = cluster_experiment_config(0.1);
  for (const PlacementPolicy policy :
       {PlacementPolicy::kSamePod, PlacementPolicy::kCrossPod}) {
    const double coarse = headline_attack_availability(
        policy, sim::Duration::from_millis(50.0));
    const double fine =
        headline_attack_availability(policy, sim::Duration::from_millis(1.0));
    // At the default epoch the builder's cell is the grid's own cell.
    EXPECT_DOUBLE_EQ(
        coarse,
        run_cluster_cell(config, policy, 0.01, 0x7e57).attack_availability);
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
