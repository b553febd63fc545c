// Serving-mode engine tests: bit-exact determinism at any wave
// parallelism (mirrors engine_test.cc for the immediate path), exact
// agreement with immediate dispatch on the counters the two modes must
// share, and the queueing phenomena the mode exists to surface — queue
// growth, shedding, timeouts, and retry-storm amplification under a
// single-pod acoustic attack.
#include "cluster/engine.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/experiment.h"
#include "core/attack.h"

namespace deepnote::cluster {
namespace {

struct ServingRunResult {
  std::uint64_t requests = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t focus_total = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::uint64_t outcome[kNumOutcomeKinds] = {};
  std::uint64_t focus_outcome[kNumOutcomeKinds] = {};
  BalancerStats stats;
  ServingReport serving;
  std::vector<ShardedClusterEngine::DepthSample> depth_timeline;
  std::int64_t qwait_p99_ns = 0;
  std::int64_t service_p99_ns = 0;
  unsigned shards = 0;
};

EngineConfig serving_engine_config() {
  EngineConfig config;
  config.balancer.policy = PlacementPolicy::kCrossPod;
  config.traffic.arrival_rate_per_s = 400.0;
  config.traffic.duration = sim::Duration::from_seconds(2.0);
  config.traffic.seed = 0xbeef;
  config.serving.enabled = true;
  config.serving.server.queue_limit = 4;
  return config;
}

/// One attacked cross-pod serving cell with the given wave parallelism;
/// min_ops_to_shard = 0 forces every wave through the TaskPool.
ServingRunResult run_attacked_serving_cell(EngineConfig config, unsigned jobs,
                                           std::size_t min_ops_to_shard) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 5};
  cluster_config.seed = 0x5eed;
  Cluster cluster(cluster_config);

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

  ServingRunResult result;
  result.requests = report.traffic.requests;
  result.succeeded = slo.succeeded();
  result.failed = slo.failed();
  result.focus_total = slo.focus_total();
  result.p50_ns = slo.p50().ns();
  result.p99_ns = slo.p99().ns();
  for (std::size_t k = 0; k < kNumOutcomeKinds; ++k) {
    result.outcome[k] = slo.outcome_count(static_cast<OutcomeKind>(k));
    result.focus_outcome[k] =
        slo.focus_outcome_count(static_cast<OutcomeKind>(k));
  }
  result.stats = report.stats;
  result.serving = report.serving;
  result.depth_timeline = engine.depth_timeline();
  result.qwait_p99_ns = engine.queue_wait_histogram().quantile(0.99).ns();
  result.service_p99_ns = engine.service_histogram().quantile(0.99).ns();
  result.shards = engine.shards();
  return result;
}

void expect_identical(const ServingRunResult& a, const ServingRunResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.focus_total, b.focus_total);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  for (std::size_t k = 0; k < kNumOutcomeKinds; ++k) {
    EXPECT_EQ(a.outcome[k], b.outcome[k]) << "outcome kind " << k;
    EXPECT_EQ(a.focus_outcome[k], b.focus_outcome[k]) << "outcome kind " << k;
  }
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.writes, b.stats.writes);
  EXPECT_EQ(a.stats.read_failovers, b.stats.read_failovers);
  EXPECT_EQ(a.stats.hedged_reads, b.stats.hedged_reads);
  EXPECT_EQ(a.stats.retries_denied, b.stats.retries_denied);
  EXPECT_EQ(a.stats.failed_reads, b.stats.failed_reads);
  EXPECT_EQ(a.stats.failed_writes, b.stats.failed_writes);
  EXPECT_EQ(a.stats.quorum_losses, b.stats.quorum_losses);
  EXPECT_EQ(a.stats.drains, b.stats.drains);
  EXPECT_EQ(a.stats.readmits, b.stats.readmits);
  EXPECT_EQ(a.stats.probes, b.stats.probes);
  EXPECT_EQ(a.serving.legs_submitted, b.serving.legs_submitted);
  EXPECT_EQ(a.serving.legs_served, b.serving.legs_served);
  EXPECT_EQ(a.serving.legs_failed, b.serving.legs_failed);
  EXPECT_EQ(a.serving.legs_timed_out, b.serving.legs_timed_out);
  EXPECT_EQ(a.serving.legs_shed, b.serving.legs_shed);
  EXPECT_EQ(a.serving.shed_requests, b.serving.shed_requests);
  EXPECT_EQ(a.serving.timed_out_requests, b.serving.timed_out_requests);
  EXPECT_EQ(a.serving.error_requests, b.serving.error_requests);
  EXPECT_EQ(a.serving.client_retries, b.serving.client_retries);
  EXPECT_EQ(a.serving.max_queue_depth, b.serving.max_queue_depth);
  EXPECT_EQ(a.qwait_p99_ns, b.qwait_p99_ns);
  EXPECT_EQ(a.service_p99_ns, b.service_p99_ns);
  ASSERT_EQ(a.depth_timeline.size(), b.depth_timeline.size());
  for (std::size_t i = 0; i < a.depth_timeline.size(); ++i) {
    EXPECT_EQ(a.depth_timeline[i].at.ns(), b.depth_timeline[i].at.ns());
    EXPECT_EQ(a.depth_timeline[i].depth, b.depth_timeline[i].depth);
  }
}

// The partition-invariance contract extends to serving mode: which
// thread drains a node's pipeline never shows in the output. Inline and
// forced-sharded runs agree bit-exactly on every SLO counter, every
// per-kind outcome, the serving telemetry, and the merged histograms.
TEST(ServingEngine, ShardedRunIsBitIdenticalToInline) {
  const ServingRunResult inline_run =
      run_attacked_serving_cell(serving_engine_config(), 1, 2048);
  const ServingRunResult sharded_run =
      run_attacked_serving_cell(serving_engine_config(), 8, 0);
  EXPECT_EQ(inline_run.shards, 1u);
  EXPECT_GT(sharded_run.shards, 1u);
  expect_identical(inline_run, sharded_run);
  // The cell exercised the serving machinery for real.
  EXPECT_GT(inline_run.requests, 0u);
  EXPECT_GT(inline_run.serving.legs_submitted, 0u);
}

TEST(ServingEngine, ShardCountDoesNotChangeResults) {
  const ServingRunResult two =
      run_attacked_serving_cell(serving_engine_config(), 2, 0);
  const ServingRunResult eight =
      run_attacked_serving_cell(serving_engine_config(), 8, 0);
  expect_identical(two, eight);
}

// Open-loop serving reuses the immediate path's traffic generator
// verbatim (same RNG stream, same routing), so the two modes must agree
// exactly on everything decided before ops reach a device: the request
// count and the read/write routing split.
TEST(ServingEngine, OpenLoopServingAgreesWithImmediateOnArrivals) {
  EngineConfig serving_config = serving_engine_config();
  serving_config.serving.closed_loop = false;
  serving_config.serving.server.queue_limit = 64;
  const ServingRunResult queued =
      run_attacked_serving_cell(serving_config, 1, 2048);

  EngineConfig immediate_config = serving_engine_config();
  immediate_config.serving.enabled = false;
  const ServingRunResult immediate =
      run_attacked_serving_cell(immediate_config, 1, 2048);

  EXPECT_GT(queued.requests, 0u);
  EXPECT_EQ(queued.requests, immediate.requests);
  EXPECT_EQ(queued.stats.reads, immediate.stats.reads);
  EXPECT_EQ(queued.stats.writes, immediate.stats.writes);
  EXPECT_EQ(queued.serving.client_retries, 0u) << "open loop cannot retry";
}

// Request conservation at the engine level: every request the SLO saw
// is served or classified into exactly one failure kind, and the
// request-kind counters in the serving report match the SLO's ledger.
TEST(ServingEngine, OutcomeClassificationIsConserved) {
  const ServingRunResult run =
      run_attacked_serving_cell(serving_engine_config(), 1, 2048);
  std::uint64_t outcome_total = 0;
  for (std::size_t k = 0; k < kNumOutcomeKinds; ++k) {
    outcome_total += run.outcome[k];
  }
  EXPECT_EQ(outcome_total, run.succeeded + run.failed);
  EXPECT_EQ(run.outcome[static_cast<std::size_t>(OutcomeKind::kServed)],
            run.succeeded);
  EXPECT_EQ(run.serving.shed_requests,
            run.outcome[static_cast<std::size_t>(OutcomeKind::kShed)]);
  EXPECT_EQ(run.serving.timed_out_requests,
            run.outcome[static_cast<std::size_t>(OutcomeKind::kTimedOut)]);
  EXPECT_EQ(run.serving.error_requests,
            run.outcome[static_cast<std::size_t>(OutcomeKind::kFailed)]);
  EXPECT_EQ(run.serving.legs_served + run.serving.legs_failed +
                run.serving.legs_timed_out + run.serving.legs_shed,
            run.serving.legs_submitted);
}

// The phenomena the mode exists to surface, on the experiment cell: a
// point-blank single-pod attack with a shallow queue grows backlog until
// depth hits the admission limit, sheds and times out legs on the
// attacked nodes, and stretches the queue-wait tail — strain that is
// invisible in the availability number because cross-pod replication
// absorbs the shed legs via failover. The quiet baseline shows none of
// it.
TEST(ServingEngine, AttackSurfacesQueueingPhenomena) {
  ServingExperimentConfig config = serving_experiment_config(0.1);
  config.queue_limits = {4};
  config.admissions = {serving::AdmissionPolicy::kRejectNew};
  config.distances_m = {std::nullopt, 0.01};
  std::vector<CellSpec> cells = cluster_serving_cells(config);
  for (CellSpec& cell : cells) cell.seed = 0x7e57;
  const CellResult quiet = run_cell(cells[0]);
  const CellResult attacked = run_cell(cells[1]);

  EXPECT_GE(quiet.availability, 0.999);
  EXPECT_EQ(quiet.attack_shed + quiet.attack_timed_out, 0u);

  // Replication still rides out the attack...
  EXPECT_GE(attacked.attack_availability, 0.95);
  // ...but the serving telemetry shows the strain underneath.
  EXPECT_GT(attacked.legs_shed + attacked.legs_timed_out,
            quiet.legs_shed + quiet.legs_timed_out);
  EXPECT_EQ(attacked.max_queue_depth, 4u);
  EXPECT_GE(attacked.attack_max_queue_depth, quiet.max_queue_depth);
  EXPECT_GT(attacked.read_failovers, quiet.read_failovers)
      << "shed legs should convert into failovers, not lost requests";
  EXPECT_GT(attacked.queue_wait_p99_ms, quiet.queue_wait_p99_ms);
}

// Retry-storm amplification: drive the whole cluster past device
// capacity so every replica queue sheds and requests fail shed-dominant
// end to end. Closed-loop clients then re-issue with backoff — the same
// client population submits measurably MORE requests than it would with
// retries disabled, load amplification under overload by definition.
TEST(ServingEngine, OverloadProvokesRetryStorm) {
  EngineConfig config = serving_engine_config();
  config.traffic.arrival_rate_per_s = 6000.0;
  config.traffic.duration = sim::Duration::from_seconds(1.0);
  config.serving.server.queue_limit = 2;
  config.serving.clients = 256;
  const ServingRunResult storm = run_attacked_serving_cell(config, 1, 2048);

  config.serving.backoff.max_retries = 0;
  const ServingRunResult no_retry = run_attacked_serving_cell(config, 1, 2048);

  EXPECT_GT(storm.serving.shed_requests, 0u)
      << "overload never exhausted a request's replica set";
  EXPECT_GT(storm.serving.client_retries, 0u);
  EXPECT_EQ(no_retry.serving.client_retries, 0u);
  // Shed backoff (5 ms, linear) is much shorter than the think mean
  // (clients / rate = ~43 ms), so retries re-issue sooner than fresh
  // requests would: the same population offers measurably more load.
  EXPECT_GT(storm.requests, no_retry.requests)
      << "shed retries should amplify offered load";
}

TEST(ServingEngine, RejectsDegenerateServingConfig) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 1};
  Cluster cluster(cluster_config);

  EngineConfig config = serving_engine_config();
  config.serving.clients = 0;
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
  config = serving_engine_config();
  config.serving.server.queue_limit = 0;
  EXPECT_THROW(ShardedClusterEngine(cluster.topology(),
                                    cluster.device_pointers(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::cluster
