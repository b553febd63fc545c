// Resilience-layer suite: the retry/backoff/budget primitives, the
// per-replica circuit breaker state machine, the deterministic chaos
// schedule (pure replay from (seed, index)), and engine-level
// integration — chaos runs byte-identical at any wave parallelism,
// crashes drain and readmit, flap windows force and suppress the
// detector, breakers short-circuit, budgets deny, slow nodes trigger
// hedges whose losers are cancelled.
#include "cluster/resilience/retry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/resilience/breaker.h"
#include "cluster/resilience/chaos.h"

namespace deepnote::cluster::resilience {
namespace {

using sim::Duration;
using sim::SimTime;

// --- backoff --------------------------------------------------------------

TEST(Backoff, ShapesWithoutJitter) {
  BackoffConfig config;
  config.jitter = 0.0;
  config.base = Duration::from_millis(10.0);
  config.cap = Duration::from_millis(200.0);

  config.kind = BackoffKind::kFixed;
  EXPECT_EQ(backoff_delay(config, 1, 0).ns(), Duration::from_millis(10.0).ns());
  EXPECT_EQ(backoff_delay(config, 7, 0).ns(), Duration::from_millis(10.0).ns());

  config.kind = BackoffKind::kExponential;
  EXPECT_EQ(backoff_delay(config, 1, 0).ns(), Duration::from_millis(10.0).ns());
  EXPECT_EQ(backoff_delay(config, 3, 0).ns(), Duration::from_millis(40.0).ns());
  EXPECT_EQ(backoff_delay(config, 30, 0).ns(),
            Duration::from_millis(200.0).ns());
}

TEST(Backoff, FullJitterStaysInRangeAndIsDeterministic) {
  BackoffConfig config;
  config.kind = BackoffKind::kExponential;
  config.jitter = 1.0;
  config.base = Duration::from_millis(10.0);
  config.cap = Duration::from_seconds(1.0);

  std::uint64_t state = 0x5eed;
  std::set<std::int64_t> distinct;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t word = next_jitter_word(state);
    const Duration d = backoff_delay(config, 4, word);
    // Full jitter: uniform over (0, 80 ms]; never zero (the 1 ns floor
    // keeps a retry from re-entering the round that shed it).
    EXPECT_GE(d.ns(), 1);
    EXPECT_LE(d.ns(), Duration::from_millis(80.0).ns());
    // Same word, same delay: replay-stable by construction.
    EXPECT_EQ(backoff_delay(config, 4, word).ns(), d.ns());
    distinct.insert(d.ns());
  }
  EXPECT_GT(distinct.size(), 32u) << "jitter should actually spread delays";
}

TEST(Backoff, ZeroJitterWordHitsTheFloorNotZero) {
  BackoffConfig config;
  config.jitter = 1.0;  // delay = d * u, u == 0 for a zero word
  config.kind = BackoffKind::kFixed;
  EXPECT_GE(backoff_delay(config, 1, 0).ns(), 1);
}

TEST(Backoff, JitterStreamsDivergeAcrossSeeds) {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    if (next_jitter_word(a) == next_jitter_word(b)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// --- retry budget ---------------------------------------------------------

TEST(RetryBudgetTest, EarnsFractionsSpendsWholeTokens) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.earn_per_request = 0.5;
  config.cap = 2.0;
  RetryBudget budget(config);
  budget.reset();
  // Starts at the cap: two immediate retries pass, the third is denied.
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  EXPECT_EQ(budget.spent(), 2u);
  EXPECT_EQ(budget.denied(), 1u);
  // One fresh request earns half a token: still short.
  budget.earn();
  EXPECT_FALSE(budget.try_spend());
  budget.earn();
  EXPECT_TRUE(budget.try_spend());
  // Earning never exceeds the cap.
  for (int i = 0; i < 100; ++i) budget.earn();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
  budget.reset();
  EXPECT_EQ(budget.spent(), 0u);
  EXPECT_EQ(budget.denied(), 0u);
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0);
}

// --- circuit breaker ------------------------------------------------------

BreakerConfig test_breaker_config() {
  BreakerConfig config;
  config.enabled = true;
  config.failure_threshold = 0.5;
  config.min_volume = 4;
  config.open_cooldown = Duration::from_seconds(1.0);
  config.half_open_probes = 2;
  return config;
}

TEST(Breaker, OpensOnFailureRateAndShortCircuits) {
  BreakerBank bank;
  bank.reset(4, 1, 4, test_breaker_config());
  EXPECT_EQ(bank.state(0), BreakerState::kClosed);
  for (int i = 0; i < 4; ++i) bank.record(0, 0, false);
  bank.update(SimTime::from_seconds(0.05));
  EXPECT_EQ(bank.state(0), BreakerState::kOpen);
  EXPECT_EQ(bank.stats().opens, 1u);
  // Open: every leg is denied and counted.
  EXPECT_FALSE(bank.allow(0, 0));
  EXPECT_FALSE(bank.allow(0, 0));
  EXPECT_EQ(bank.stats().short_circuits, 2u);
  // Untouched nodes stay closed and admitting.
  EXPECT_EQ(bank.state(1), BreakerState::kClosed);
  EXPECT_TRUE(bank.allow(0, 1));
}

TEST(Breaker, MinVolumeStopsOneUnluckyLegFromTripping) {
  BreakerBank bank;
  bank.reset(2, 1, 2, test_breaker_config());
  bank.record(0, 0, false);  // 100% failure rate but volume 1 < 4
  bank.update(SimTime::from_seconds(0.05));
  EXPECT_EQ(bank.state(0), BreakerState::kClosed);
  EXPECT_TRUE(bank.allow(0, 0));
}

TEST(Breaker, HalfOpenProbesCloseOrReopen) {
  BreakerBank bank;
  bank.reset(2, 1, 2, test_breaker_config());
  for (int i = 0; i < 8; ++i) bank.record(0, 0, false);
  bank.update(SimTime::from_seconds(0.05));
  ASSERT_EQ(bank.state(0), BreakerState::kOpen);

  // Cooldown not elapsed: still open, still denying.
  bank.update(SimTime::from_seconds(0.5));
  EXPECT_EQ(bank.state(0), BreakerState::kOpen);
  EXPECT_FALSE(bank.allow(0, 0));

  // Cooldown elapsed: half-open admits a bounded probe count per epoch.
  bank.update(SimTime::from_seconds(1.1));
  ASSERT_EQ(bank.state(0), BreakerState::kHalfOpen);
  EXPECT_TRUE(bank.allow(0, 0));
  EXPECT_TRUE(bank.allow(0, 0));
  EXPECT_FALSE(bank.allow(0, 0)) << "third probe in one epoch must be denied";

  // Clean probes close it.
  bank.record(0, 0, true);
  bank.record(0, 0, true);
  bank.update(SimTime::from_seconds(1.15));
  EXPECT_EQ(bank.state(0), BreakerState::kClosed);
  EXPECT_EQ(bank.stats().closes, 1u);
  EXPECT_TRUE(bank.allow(0, 0));

  // Trip it again; one failed probe re-opens (and restarts the cooldown).
  for (int i = 0; i < 8; ++i) bank.record(0, 0, false);
  bank.update(SimTime::from_seconds(1.2));
  bank.update(SimTime::from_seconds(2.3));
  ASSERT_EQ(bank.state(0), BreakerState::kHalfOpen);
  EXPECT_TRUE(bank.allow(0, 0));
  bank.record(0, 0, false);
  bank.update(SimTime::from_seconds(2.35));
  EXPECT_EQ(bank.state(0), BreakerState::kOpen);
  EXPECT_EQ(bank.stats().reopens, 1u);
  bank.update(SimTime::from_seconds(2.4));
  EXPECT_EQ(bank.state(0), BreakerState::kOpen) << "cooldown must restart";
}

// --- chaos schedule -------------------------------------------------------

ChaosConfig test_chaos_config() {
  ChaosConfig config;
  config.start = SimTime::zero();
  config.end = SimTime::from_seconds(60.0);
  config.nodes = 15;
  config.pods = 3;
  config.crashes = 6;
  config.flaps = 5;
  config.slow_nodes = 4;
  config.pod_pulses = 3;
  return config;
}

TEST(ChaosSchedule, ReplayIsIdenticalFromSeedAndIndex) {
  const ChaosConfig config = test_chaos_config();
  const auto a = make_chaos_schedule(config, 0xfeed, 7);
  const auto b = make_chaos_schedule(config, 0xfeed, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at.ns(), b[i].at.ns());
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_DOUBLE_EQ(a[i].magnitude, b[i].magnitude);
  }
}

TEST(ChaosSchedule, DiffersAcrossSeedAndIndex) {
  const ChaosConfig config = test_chaos_config();
  const auto base = make_chaos_schedule(config, 0xfeed, 7);
  for (const auto& other : {make_chaos_schedule(config, 0xfeed, 8),
                           make_chaos_schedule(config, 0xbeef, 7)}) {
    ASSERT_EQ(other.size(), base.size());
    bool any_diff = false;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base[i].at.ns() != other[i].at.ns() ||
          base[i].target != other[i].target) {
        any_diff = true;
        break;
      }
    }
    EXPECT_TRUE(any_diff);
  }
}

TEST(ChaosSchedule, SortedPairedAndInsideTheWindow) {
  const ChaosConfig config = test_chaos_config();
  const auto events = make_chaos_schedule(config, 1, 0);
  EXPECT_EQ(events.size(), 2u * (6 + 5 + 4 + 3));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at.ns(), events[i].at.ns()) << "unsorted at " << i;
  }
  // Every begin has a matching end at or after it, same target, and all
  // timestamps land inside [start, end].
  std::vector<std::pair<ChaosEventKind, ChaosEventKind>> pairs = {
      {ChaosEventKind::kNodeCrash, ChaosEventKind::kNodeRestart},
      {ChaosEventKind::kSlowNode, ChaosEventKind::kSlowNodeEnd},
      {ChaosEventKind::kPodAttackOn, ChaosEventKind::kPodAttackOff},
  };
  for (const auto& [begin_kind, end_kind] : pairs) {
    std::vector<std::uint32_t> begins;
    std::vector<std::uint32_t> ends;
    for (const ChaosEvent& e : events) {
      EXPECT_GE(e.at.ns(), config.start.ns());
      EXPECT_LE(e.at.ns(), config.end.ns());
      if (e.kind == begin_kind) begins.push_back(e.target);
      if (e.kind == end_kind) ends.push_back(e.target);
    }
    std::sort(begins.begin(), begins.end());
    std::sort(ends.begin(), ends.end());
    EXPECT_EQ(begins, ends) << "unpaired " << chaos_event_kind_name(begin_kind);
  }
}

TEST(ChaosSchedule, ScriptedOnlyNeedsNoGenerationWindow) {
  ChaosConfig config;  // start == end, nodes == 0: fine, nothing generated
  config.scripted.push_back({SimTime::from_seconds(1.0),
                             ChaosEventKind::kPodAttackOn, 0, 0.01});
  config.scripted.push_back({SimTime::from_seconds(2.0),
                             ChaosEventKind::kPodAttackOff, 0, 0.0});
  const auto events = make_chaos_schedule(config, 0, 0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ChaosEventKind::kPodAttackOn);
}

TEST(ChaosSchedule, ValidatesGeneratedClasses) {
  ChaosConfig config;
  config.crashes = 1;  // generated faults but no nodes / empty window
  EXPECT_THROW(make_chaos_schedule(config, 0, 0), std::invalid_argument);
  config.nodes = 4;
  EXPECT_THROW(make_chaos_schedule(config, 0, 0), std::invalid_argument);
  config.end = SimTime::from_seconds(1.0);
  EXPECT_NO_THROW(make_chaos_schedule(config, 0, 0));
  config.crashes = 0;
  config.pod_pulses = 1;  // pod faults need pods
  EXPECT_THROW(make_chaos_schedule(config, 0, 0), std::invalid_argument);
}

// --- engine integration ---------------------------------------------------

struct ChaosRunResult {
  std::uint64_t requests = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::uint64_t outcome[kNumOutcomeKinds] = {};
  BalancerStats stats;
  ServingReport serving;
};

EngineConfig chaos_engine_config() {
  EngineConfig config;
  config.balancer.policy = PlacementPolicy::kCrossPod;
  config.traffic.arrival_rate_per_s = 400.0;
  config.traffic.duration = sim::Duration::from_seconds(4.0);
  config.traffic.seed = 0xbeef;
  config.serving.enabled = true;
  config.serving.server.queue_limit = 16;
  config.serving.clients = 128;
  return config;
}

/// One 3x5 serving cell with the given chaos schedule lowered onto it.
ChaosRunResult run_chaos_cell(EngineConfig config, const ChaosConfig& chaos,
                              std::uint64_t chaos_seed, unsigned jobs,
                              std::size_t min_ops_to_shard = 2048) {
  ClusterConfig cluster_config;
  cluster_config.topology = ClusterTopology{.pods = 3, .bays_per_pod = 5};
  cluster_config.seed = 0x5eed;
  Cluster cluster(cluster_config);

  config.jobs = jobs;
  config.min_ops_to_shard = min_ops_to_shard;
  ShardedClusterEngine engine(cluster.topology(), cluster.device_pointers(),
                              config);

  const auto schedule = make_chaos_schedule(chaos, chaos_seed, 0);
  SloTracker slo(sim::SimTime::zero());
  const EngineReport report = engine.run(
      sim::SimTime::zero(), slo, chaos_actions(schedule, engine, cluster, chaos));

  ChaosRunResult result;
  result.requests = report.traffic.requests;
  result.succeeded = slo.succeeded();
  result.failed = slo.failed();
  result.p50_ns = slo.p50().ns();
  result.p99_ns = slo.p99().ns();
  for (std::size_t k = 0; k < kNumOutcomeKinds; ++k) {
    result.outcome[k] = slo.outcome_count(static_cast<OutcomeKind>(k));
  }
  result.stats = report.stats;
  result.serving = report.serving;
  return result;
}

// The chaos determinism contract: a run under randomized crash + flap +
// slow-node + pulse faults is byte-identical whether waves run inline or
// sharded across a pool — the schedule is materialized up front and every
// mutation lands at a single-threaded barrier.
TEST(ChaosEngine, ChaosRunIsBitIdenticalAcrossJobs) {
  ChaosConfig chaos = test_chaos_config();
  chaos.end = SimTime::from_seconds(4.0);
  chaos.crashes = 3;
  chaos.flaps = 3;
  chaos.slow_nodes = 2;
  chaos.pod_pulses = 2;
  chaos.pulse_min = Duration::from_seconds(0.5);
  chaos.pulse_max = Duration::from_seconds(1.5);

  EngineConfig config = chaos_engine_config();
  config.serving.backoff.retry_failures = true;
  config.breaker.enabled = true;

  const ChaosRunResult inline_run = run_chaos_cell(config, chaos, 0xc4a0, 1);
  const ChaosRunResult sharded = run_chaos_cell(config, chaos, 0xc4a0, 4, 0);

  EXPECT_EQ(inline_run.requests, sharded.requests);
  EXPECT_EQ(inline_run.succeeded, sharded.succeeded);
  EXPECT_EQ(inline_run.failed, sharded.failed);
  EXPECT_EQ(inline_run.p50_ns, sharded.p50_ns);
  EXPECT_EQ(inline_run.p99_ns, sharded.p99_ns);
  for (std::size_t k = 0; k < kNumOutcomeKinds; ++k) {
    EXPECT_EQ(inline_run.outcome[k], sharded.outcome[k]) << "kind " << k;
  }
  EXPECT_EQ(inline_run.stats.drains, sharded.stats.drains);
  EXPECT_EQ(inline_run.stats.readmits, sharded.stats.readmits);
  EXPECT_EQ(inline_run.stats.read_failovers, sharded.stats.read_failovers);
  EXPECT_EQ(inline_run.stats.hedged_reads, sharded.stats.hedged_reads);
  EXPECT_EQ(inline_run.serving.legs_submitted, sharded.serving.legs_submitted);
  EXPECT_EQ(inline_run.serving.legs_failed, sharded.serving.legs_failed);
  EXPECT_EQ(inline_run.serving.legs_cancelled,
            sharded.serving.legs_cancelled);
  EXPECT_EQ(inline_run.serving.client_retries, sharded.serving.client_retries);
  EXPECT_EQ(inline_run.serving.breaker_opens, sharded.serving.breaker_opens);
  EXPECT_EQ(inline_run.serving.breaker_short_circuits,
            sharded.serving.breaker_short_circuits);
  EXPECT_EQ(inline_run.serving.retry_budget_spent,
            sharded.serving.retry_budget_spent);
}

// A crash window hard-fails legs at issue; the detector notices, drains
// the node, and readmits it after the scripted restart.
TEST(ChaosEngine, CrashDrainsThenRestartReadmits) {
  ChaosConfig chaos;
  chaos.scripted.push_back(
      {SimTime::from_seconds(0.5), ChaosEventKind::kNodeCrash, 3, 0.0});
  chaos.scripted.push_back(
      {SimTime::from_seconds(2.0), ChaosEventKind::kNodeRestart, 3, 0.0});
  const ChaosRunResult run =
      run_chaos_cell(chaos_engine_config(), chaos, 0, 1);
  // Crashed legs fail at issue, before the node pipeline: they surface
  // as read failovers (and detector errors -> the drain), not as
  // server-observed leg failures.
  EXPECT_GT(run.stats.read_failovers, 0u);
  EXPECT_GE(run.stats.drains, 1u);
  EXPECT_GE(run.stats.readmits, 1u);
  // Cross-pod replication keeps the cell serving through one dead node.
  EXPECT_GT(run.succeeded, 0u);
  EXPECT_GT(static_cast<double>(run.succeeded) /
                static_cast<double>(run.succeeded + run.failed),
            0.99);
}

// A forced flap drains a perfectly healthy node (no attack, no crash):
// the detector override is the only thing that could have done it.
TEST(ChaosEngine, ForcedFlapDrainsAHealthyNode) {
  ChaosConfig chaos;
  chaos.scripted.push_back(
      {SimTime::from_seconds(0.5), ChaosEventKind::kDetectorForce, 2, 0.0});
  chaos.scripted.push_back(
      {SimTime::from_seconds(2.0), ChaosEventKind::kDetectorClear, 2, 0.0});
  const ChaosRunResult run =
      run_chaos_cell(chaos_engine_config(), chaos, 0, 1);
  EXPECT_GE(run.stats.drains, 1u);
  EXPECT_GE(run.stats.readmits, 1u);
  EXPECT_EQ(run.serving.legs_failed, 0u) << "no real fault was injected";
}

// Suppression is the dual: with every node of an attacked pod
// suppressed, the detector is forbidden from draining them, so reads
// keep hitting dead replicas and failing over the hard way.
TEST(ChaosEngine, SuppressedDetectorCannotDrainTheAttackedPod) {
  ChaosConfig base;
  base.scripted.push_back(
      {SimTime::from_seconds(0.5), ChaosEventKind::kPodAttackOn, 0, 0.01});
  base.scripted.push_back(
      {SimTime::from_seconds(3.0), ChaosEventKind::kPodAttackOff, 0, 0.0});
  ChaosConfig suppressed = base;
  for (std::uint32_t node = 0; node < 5; ++node) {  // pod 0 = nodes 0..4
    suppressed.scripted.push_back(
        {SimTime::zero(), ChaosEventKind::kDetectorSuppress, node, 0.0});
  }
  const ChaosRunResult with_detector =
      run_chaos_cell(chaos_engine_config(), base, 0, 1);
  const ChaosRunResult without =
      run_chaos_cell(chaos_engine_config(), suppressed, 0, 1);
  EXPECT_GE(with_detector.stats.drains, 1u);
  EXPECT_EQ(without.stats.drains, 0u);
  EXPECT_GT(without.stats.read_failovers, with_detector.stats.read_failovers);
}

// A slow-node window inflates service times past the hedge threshold:
// reads against it hedge, and when the slow primary still answers first
// (or the backup queue is busy), the losing leg is cancelled in place —
// the queue slot comes back instead of being served to nobody.
TEST(ChaosEngine, SlowNodeTriggersHedgesAndCancellations) {
  ChaosConfig chaos;
  chaos.scripted.push_back(
      {SimTime::from_seconds(0.5), ChaosEventKind::kSlowNode, 1, 8.0});
  chaos.scripted.push_back(
      {SimTime::from_seconds(3.5), ChaosEventKind::kSlowNodeEnd, 1, 1.0});
  EngineConfig config = chaos_engine_config();
  config.balancer.hedge_threshold = Duration::from_millis(5.0);
  config.traffic.arrival_rate_per_s = 900.0;
  const ChaosRunResult run = run_chaos_cell(config, chaos, 0, 1);
  EXPECT_GT(run.stats.hedged_reads, 0u);
  EXPECT_GT(run.serving.legs_cancelled, 0u);
  EXPECT_EQ(run.serving.legs_failed, 0u) << "slowness is not failure";
}

// Breakers under a pod attack: the failing replicas trip open, legs to
// them short-circuit at issue, and the whole thing is invisible when the
// breaker is disabled (identical config, breaker off -> zero counters).
TEST(ChaosEngine, BreakerTripsAndShortCircuitsUnderAttack) {
  ChaosConfig chaos;
  chaos.scripted.push_back(
      {SimTime::from_seconds(0.5), ChaosEventKind::kPodAttackOn, 0, 0.01});
  chaos.scripted.push_back(
      {SimTime::from_seconds(3.0), ChaosEventKind::kPodAttackOff, 0, 0.0});
  EngineConfig config = chaos_engine_config();
  config.breaker.enabled = true;
  config.breaker.min_volume = 4;
  const ChaosRunResult with_breaker = run_chaos_cell(config, chaos, 0, 1);
  EXPECT_GT(with_breaker.serving.breaker_opens, 0u);
  EXPECT_GT(with_breaker.serving.breaker_short_circuits, 0u);

  config.breaker.enabled = false;
  const ChaosRunResult without = run_chaos_cell(config, chaos, 0, 1);
  EXPECT_EQ(without.serving.breaker_opens, 0u);
  EXPECT_EQ(without.serving.breaker_short_circuits, 0u);
}

// The retry budget under a storm: with retries enabled and the bucket
// small, spent and denied both move, and the denial count bounds the
// retry stream the cluster actually absorbed.
TEST(ChaosEngine, RetryBudgetSpendsAndDeniesUnderAttack) {
  ChaosConfig chaos;
  // Crash two of three pods outright: writes lose quorum (one live
  // replica cannot make two acks), so every write fails and retries —
  // an acoustic pulse would not do, because attacked drives still
  // absorb writes into their caches.
  for (std::uint32_t node = 0; node < 10; ++node) {  // pods 0 and 1
    chaos.scripted.push_back(
        {SimTime::from_seconds(0.5), ChaosEventKind::kNodeCrash, node, 0.0});
    chaos.scripted.push_back(
        {SimTime::from_seconds(3.0), ChaosEventKind::kNodeRestart, node, 0.0});
  }
  EngineConfig config = chaos_engine_config();
  config.traffic.arrival_rate_per_s = 800.0;
  config.serving.clients = 256;
  config.serving.backoff.retry_failures = true;
  config.serving.backoff.max_retries = resilience::kUnlimitedRetries;
  config.serving.retry_budget.enabled = true;
  config.serving.retry_budget.earn_per_request = 0.01;
  config.serving.retry_budget.cap = 4.0;
  const ChaosRunResult run = run_chaos_cell(config, chaos, 0, 1);
  EXPECT_GT(run.serving.retry_budget_spent, 0u);
  EXPECT_GT(run.serving.retry_budget_denied, 0u);
  EXPECT_EQ(run.serving.client_retries, run.serving.retry_budget_spent)
      << "every retry that went out must have spent a token";
}

}  // namespace
}  // namespace deepnote::cluster::resilience
