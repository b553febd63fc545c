// Engine control-loop tests on MemDisk nodes, in exact virtual time:
// primary reads, failover, detector-driven drain, probe readmission
// (in every epoch, even one with no closed-loop client due),
// the write quorum, writes and reads through drained replicas, the
// failover budget, hedged reads, and the constructor's checks of the
// device list and object space.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "mem_cluster.h"

namespace deepnote::cluster {
namespace {

/// A detector that never alerts: a failing node stays in rotation, and
/// its recent-latency EWMA still tracks every served op.
core::DetectorConfig quiet_detector() {
  core::DetectorConfig quiet;
  quiet.error_burst = 1000000;
  quiet.warmup_ops = 1000000;
  return quiet;
}

/// Force `nodes` out of rotation from the first barrier on. A probe may
/// readmit one, but the same barrier drains it again, so every epoch
/// after the first routes around it.
std::vector<TimelineAction> force_drain(ShardedClusterEngine& engine,
                                        std::vector<NodeId> nodes) {
  std::vector<TimelineAction> actions;
  actions.push_back({sim::SimTime::zero(), [&engine, nodes](sim::SimTime) {
                       for (const NodeId node : nodes) {
                         engine.chaos_set_flap(
                             node, resilience::ChaosFlapMode::kForceDown);
                       }
                     }});
  return actions;
}

TEST(ControlLoop, ReadServedByPrimaryReplica) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  const MemRun run = run_on(mem, config);
  const BalancerStats& s = run.report.stats;

  EXPECT_GT(s.reads, 0u);
  EXPECT_EQ(run.slo.failed(), 0u);
  EXPECT_EQ(s.read_failovers, 0u);
  EXPECT_EQ(s.hedged_reads, 0u);
  // One leg per read, served in one device latency.
  std::uint64_t legs = 0;
  for (const auto& disk : mem.disks) legs += disk->read_count();
  EXPECT_EQ(legs, s.reads);
  EXPECT_EQ(run.slo.latencies().max_value(), sim::Duration::from_micros(20));
}

TEST(ControlLoop, ReadFailsOverWhenPrimaryErrors) {
  MemCluster mem;
  mem.disks[0]->set_failing(true);
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  config.detector = quiet_detector();
  const MemRun run = run_on(mem, config);
  const BalancerStats& s = run.report.stats;

  EXPECT_EQ(run.slo.failed(), 0u);
  // Every read whose primary is the failing node failed over once.
  EXPECT_GT(s.read_failovers, 0u);
  EXPECT_EQ(s.read_failovers, mem.disks[0]->read_count());
  EXPECT_EQ(s.retries_denied, 0u);
  // The failover starts when the primary's failure reports.
  EXPECT_EQ(run.slo.latencies().max_value(), sim::Duration::from_micros(40));
}

TEST(ControlLoop, ErrorBurstDrainsTheNodeOutOfRotation) {
  // The engine's default detector alerts on three consecutive errors, so
  // the first epoch's failed reads on node 0 drain it at the barrier.
  MemCluster mem;
  mem.disks[0]->set_failing(true);
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  SloTracker slo(sim::SimTime::zero());
  engine.start_run(sim::SimTime::zero(), slo);

  ASSERT_TRUE(engine.step());
  EXPECT_EQ(engine.health(0), NodeHealth::kDrained);
  EXPECT_EQ(engine.stats().drains, 1u);
  const std::uint64_t failovers = engine.stats().read_failovers;
  const std::uint64_t probes = engine.stats().probes;
  const std::uint64_t failing_reads = mem.disks[0]->read_count();
  EXPECT_GT(failovers, 0u);
  while (engine.step()) {
  }
  const EngineReport report = engine.finish();

  // The drained primary is ranked last: every later read goes straight
  // to a healthy replica, and only probes still touch node 0.
  EXPECT_EQ(report.stats.read_failovers, failovers);
  EXPECT_EQ(mem.disks[0]->read_count() - failing_reads,
            report.stats.probes - probes);
  EXPECT_EQ(report.stats.drains, 1u);
  EXPECT_EQ(slo.failed(), 0u);
}

TEST(ControlLoop, ProbeReadmitsARecoveredNode) {
  // Node 0 fails from the start and recovers at 500 ms. Its first probe
  // (one interval after the alert) fails and keeps it drained; the
  // first probe after the recovery readmits it.
  MemCluster mem;
  mem.disks[0]->set_failing(true);
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  const sim::SimTime recovery = sim::SimTime::from_millis(500.0);
  std::vector<TimelineAction> actions;
  actions.push_back(
      {recovery, [&mem](sim::SimTime) { mem.disks[0]->clear_fault(); }});
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  SloTracker slo(sim::SimTime::zero());
  engine.start_run(sim::SimTime::zero(), slo, std::move(actions));

  // Every barrier up to the recovery sees a failing device.
  do {
    ASSERT_TRUE(engine.step());
    EXPECT_EQ(engine.health(0), NodeHealth::kDrained);
  } while (engine.now() < recovery);
  EXPECT_GE(engine.stats().probes, 1u);
  EXPECT_EQ(engine.stats().readmits, 0u);
  while (engine.step()) {
  }
  const EngineReport report = engine.finish();

  EXPECT_EQ(engine.health(0), NodeHealth::kHealthy);
  EXPECT_FALSE(engine.detector(0).alerted())
      << "readmission acknowledges the alert";
  EXPECT_EQ(report.stats.drains, 1u);
  EXPECT_EQ(report.stats.readmits, 1u);
  EXPECT_GT(report.stats.probes, report.stats.readmits);
}

TEST(ControlLoop, WriteNeedsMajorityQuorum) {
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 0.0;

  // All healthy: every replica takes every write, acked at the quorum
  // (second) ack.
  MemCluster healthy;
  const MemRun all = run_on(healthy, config);
  EXPECT_GT(all.report.stats.writes, 0u);
  EXPECT_EQ(all.slo.failed(), 0u);
  for (const auto& disk : healthy.disks) {
    EXPECT_EQ(disk->write_count(), all.report.stats.writes);
  }
  EXPECT_EQ(all.slo.latencies().max_value(), sim::Duration::from_micros(20));

  // One member down: 2 of 3 still make quorum.
  MemCluster one_down;
  one_down.disks[0]->set_failing(true);
  const MemRun one = run_on(one_down, config);
  EXPECT_EQ(one.slo.failed(), 0u);
  EXPECT_EQ(one.report.stats.quorum_losses, 0u);

  // Two members down: every write loses quorum.
  MemCluster two_down;
  two_down.disks[0]->set_failing(true);
  two_down.disks[1]->set_failing(true);
  const MemRun two = run_on(two_down, config);
  const BalancerStats& s = two.report.stats;
  EXPECT_GT(s.writes, 0u);
  EXPECT_EQ(s.quorum_losses, s.writes);
  EXPECT_EQ(s.failed_writes, s.writes);
  EXPECT_EQ(two.slo.succeeded(), 0u);
}

/// A writes-only run with `drained` forced out of rotation.
MemRun run_writes_with_drained(const MemCluster& mem,
                               std::vector<NodeId> drained) {
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 0.0;
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  MemRun run;
  run.report = engine.run(sim::SimTime::zero(), run.slo,
                          force_drain(engine, std::move(drained)));
  return run;
}

TEST(ControlLoop, WritesGoThroughDrainedReplicasWhenQuorumNeedsThem) {
  // One replica drained: the other two make quorum, so writes skip it.
  MemCluster one;
  const MemRun skip = run_writes_with_drained(one, {0});
  EXPECT_GE(skip.report.stats.drains, 1u);
  EXPECT_EQ(skip.slo.failed(), 0u);
  EXPECT_LT(one.disks[0]->write_count(), skip.report.stats.writes);
  EXPECT_EQ(one.disks[1]->write_count(), skip.report.stats.writes);

  // Two of three drained (the devices are fine): the lone in-rotation
  // replica cannot make quorum, so writes go through the drains.
  MemCluster two;
  const MemRun through = run_writes_with_drained(two, {0, 1});
  EXPECT_GE(through.report.stats.drains, 2u);
  EXPECT_EQ(through.report.stats.quorum_losses, 0u);
  EXPECT_EQ(through.slo.failed(), 0u);
  for (const auto& disk : two.disks) {
    EXPECT_EQ(disk->write_count(), through.report.stats.writes);
  }
}

TEST(ControlLoop, FailStaticReadsStillTryAFullyDrainedSet) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  SloTracker slo(sim::SimTime::zero());
  engine.start_run(sim::SimTime::zero(), slo, force_drain(engine, {0, 1, 2}));

  ASSERT_TRUE(engine.step());  // the first barrier drains all three
  for (NodeId node = 0; node < 3; ++node) {
    ASSERT_EQ(engine.health(node), NodeHealth::kDrained);
  }
  const std::uint64_t served_before = slo.succeeded();
  while (engine.step()) {
  }
  const EngineReport report = engine.finish();

  // Still fully drained, yet every read was served by its first
  // candidate.
  for (NodeId node = 0; node < 3; ++node) {
    EXPECT_EQ(engine.health(node), NodeHealth::kDrained);
  }
  EXPECT_GT(slo.succeeded(), served_before);
  EXPECT_EQ(slo.failed(), 0u);
  EXPECT_EQ(report.stats.read_failovers, 0u);
}

// A closed-loop population so sparse that most epochs have no client
// due still runs every probe. Node 0 is forced out of rotation from the
// first barrier, so each probe reads a healthy disk and readmits it,
// and the same barrier drains it again: node 0 serves no traffic, and
// its disk sees exactly the probes.
TEST(ControlLoop, SparseClosedLoopRunsEveryProbe) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.arrival_rate_per_s = 2.0;
  config.traffic.duration = sim::Duration::from_seconds(5.0);
  config.serving.enabled = true;
  config.serving.closed_loop = true;
  config.serving.clients = 1;
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  SloTracker slo(sim::SimTime::zero());
  const EngineReport report =
      engine.run(sim::SimTime::zero(), slo, force_drain(engine, {0}));
  const BalancerStats& s = report.stats;

  // 100 epochs, about 10 of them with a request in flight.
  EXPECT_GT(report.traffic.requests, 0u);
  EXPECT_LT(report.traffic.requests, 50u);
  EXPECT_GT(s.probes, 10u);
  EXPECT_EQ(s.readmits, s.probes);
  EXPECT_EQ(mem.disks[0]->read_count(), s.probes);
}

TEST(ControlLoop, RetryBudgetDeniesRunawayFailover) {
  MemCluster mem;
  mem.disks[0]->set_failing(true);
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  config.detector = quiet_detector();  // every such read needs a token
  config.balancer.retry_budget_ratio = 0.0;  // nothing refills
  config.balancer.retry_budget_cap = 2.0;    // two failovers, then denial
  config.balancer.hedge_threshold = sim::Duration::zero();
  const MemRun run = run_on(mem, config);
  const BalancerStats& s = run.report.stats;

  EXPECT_EQ(s.read_failovers, 2u);
  EXPECT_GT(s.retries_denied, 0u);
  EXPECT_EQ(s.failed_reads, s.retries_denied);
  EXPECT_EQ(mem.disks[0]->read_count(), s.read_failovers + s.retries_denied);
}

TEST(ControlLoop, HedgesReadsOffAHotPrimary) {
  // Node 0 answers in 100 ms: its first served read seeds the
  // recent-latency EWMA above the 40 ms hedge threshold, so from the
  // next epoch on its reads hedge, and the fast backup wins every race.
  MemCluster mem;
  mem.disks[0] = std::make_unique<storage::MemDisk>(
      MemCluster::kSectors, sim::Duration::from_millis(100.0));
  EngineConfig config = mem_engine_config();
  config.traffic.read_fraction = 1.0;
  config.detector = quiet_detector();
  const MemRun run = run_on(mem, config);
  const BalancerStats& s = run.report.stats;

  EXPECT_GT(s.hedged_reads, 0u);
  EXPECT_EQ(s.hedge_wins, s.hedged_reads);
  EXPECT_EQ(run.slo.failed(), 0u);
}

TEST(ControlLoop, RejectsMismatchedNodeList) {
  MemCluster mem;
  std::vector<storage::BlockDevice*> devices = mem.devices();
  devices.pop_back();  // one device fewer than the topology has nodes
  EXPECT_THROW(ShardedClusterEngine(mem.topo, devices, mem_engine_config()),
               std::invalid_argument);
}

TEST(ControlLoop, RejectsObjectSpaceLargerThanDevice) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.balancer.objects = MemCluster::kSectors;  // * 8 sectors: cannot fit
  EXPECT_THROW(ShardedClusterEngine(mem.topo, mem.devices(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::cluster
