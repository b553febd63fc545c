// Traffic tests: the exact alias-method Zipf sampler, and the engine's
// open-loop arrivals — Poisson arrival counts, the read/write mix,
// deterministic replay, timeline action delivery and the rejection of
// degenerate traffic configs — on MemDisk nodes.
#include "cluster/traffic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "mem_cluster.h"

namespace deepnote::cluster {
namespace {

TEST(ZipfAlias, ExactProbabilitiesSumToOneAndDecay) {
  const ZipfAliasSampler zipf(1000, 0.99);
  double sum = 0.0;
  for (std::uint64_t rank = 0; rank < 1000; ++rank) {
    sum += zipf.probability(rank);
    if (rank > 0) {
      EXPECT_LT(zipf.probability(rank), zipf.probability(rank - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfAlias, MatchesTheExactDistribution) {
  // The alias table must reproduce its own exact pmf: bucket each of a
  // large sample run and compare against n * p(rank) within 5 sigma of
  // the binomial noise floor.
  constexpr std::uint64_t kN = 500;
  constexpr double kTheta = 0.99;
  constexpr int kSamples = 200000;
  const ZipfAliasSampler zipf(kN, kTheta);
  sim::Rng rng(0xa11a5);
  std::vector<std::uint64_t> counts(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = zipf.next(rng);
    ASSERT_LT(rank, kN);
    ++counts[rank];
  }
  for (std::uint64_t rank = 0; rank < kN; ++rank) {
    const double expected = kSamples * zipf.probability(rank);
    const double sigma = std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(counts[rank]), expected,
                5.0 * sigma + 1.0)
        << "rank " << rank;
  }
}

TEST(ZipfAlias, DeterministicAndRejectsBadConfig) {
  const ZipfAliasSampler zipf(100, 0.7);
  sim::Rng a(123);
  sim::Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.next(a), zipf.next(b));
  EXPECT_THROW(ZipfAliasSampler(0, 0.99), std::invalid_argument);
  EXPECT_THROW(ZipfAliasSampler(10, 0.0), std::invalid_argument);
  EXPECT_THROW(ZipfAliasSampler(10, 1.0), std::invalid_argument);
}

TEST(Traffic, OpenLoopArrivalCountTracksTheRate) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.arrival_rate_per_s = 2000.0;
  const MemRun run = run_on(mem, config);
  const TrafficReport& report = run.report.traffic;
  // Poisson(2000): +/- 5 sigma.
  EXPECT_GT(report.requests, 1750u);
  EXPECT_LT(report.requests, 2250u);
  EXPECT_EQ(report.requests, report.reads + report.writes);
  EXPECT_EQ(report.requests, run.slo.total());
}

TEST(Traffic, ReadWriteMixRoughlyHonored) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.arrival_rate_per_s = 5000.0;
  config.traffic.read_fraction = 0.9;
  const MemRun run = run_on(mem, config);
  const TrafficReport& report = run.report.traffic;
  const double read_share =
      static_cast<double>(report.reads) / static_cast<double>(report.requests);
  EXPECT_GT(read_share, 0.85);
  EXPECT_LT(read_share, 0.95);
}

TEST(Traffic, SameSeedReplaysIdentically) {
  EngineConfig config = mem_engine_config();
  config.traffic.seed = 0xfeed;

  MemCluster a;
  const MemRun ra = run_on(a, config);
  MemCluster b;
  const MemRun rb = run_on(b, config);

  EXPECT_EQ(ra.report.traffic.requests, rb.report.traffic.requests);
  EXPECT_EQ(ra.report.traffic.reads, rb.report.traffic.reads);
  EXPECT_EQ(ra.report.traffic.writes, rb.report.traffic.writes);
  EXPECT_EQ(ra.slo.total(), rb.slo.total());
  EXPECT_EQ(ra.slo.p99().ns(), rb.slo.p99().ns());
  for (std::size_t pod = 0; pod < a.topo.pods; ++pod) {
    EXPECT_EQ(a.disks[pod]->op_count(), b.disks[pod]->op_count());
  }
}

TEST(Traffic, TimelineActionsFireOnceInOrder) {
  // 30 ms devices: requests arriving just before an action complete
  // after its scheduled time, so the action must wait for them.
  const sim::Duration latency = sim::Duration::from_millis(30.0);
  MemCluster mem(latency);
  std::vector<int> fired;
  std::vector<sim::SimTime> fired_at;
  std::vector<TimelineAction> actions;
  const sim::SimTime first = sim::SimTime::from_millis(100.0);
  const sim::SimTime second = sim::SimTime::from_millis(600.0);
  actions.push_back({first, [&](sim::SimTime t) {
                       fired.push_back(1);
                       fired_at.push_back(t);
                     }});
  actions.push_back({second, [&](sim::SimTime t) {
                       fired.push_back(2);
                       fired_at.push_back(t);
                     }});
  run_on(mem, mem_engine_config(), std::move(actions));

  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
  // Never behind the I/O frontier: later than the scheduled time by the
  // tail of the requests already in flight, and no later than the
  // slowest of them could have completed.
  EXPECT_GT(fired_at[0], first);
  EXPECT_LE(fired_at[0], first + latency);
  EXPECT_GT(fired_at[1], second);
  EXPECT_LE(fired_at[1], second + latency);
}

TEST(Traffic, RejectsDegenerateConfig) {
  MemCluster mem;
  EngineConfig config = mem_engine_config();
  config.traffic.arrival_rate_per_s = 0.0;
  EXPECT_THROW(ShardedClusterEngine(mem.topo, mem.devices(), config),
               std::invalid_argument);
  config = mem_engine_config();
  config.traffic.read_fraction = 1.5;
  EXPECT_THROW(ShardedClusterEngine(mem.topo, mem.devices(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace deepnote::cluster
