// Traffic tests: the exact alias-method Zipf sampler and its batched
// draw/prefetch/resolve split, the closed-loop population's next-issue
// calendar (differentially, against the timer wheel) and its partitions
// (against one partition, inline and on a pool), the slices a round's
// runs are read back in, and the engine's
// open-loop arrivals — Poisson arrival counts, the read/write mix,
// deterministic replay, timeline action delivery and the rejection of
// degenerate traffic configs — on MemDisk nodes.
#include "cluster/traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mem_cluster.h"
#include "sim/task_pool.h"
#include "sim/timer_wheel.h"

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

TEST(ZipfAlias, DrawPrefetchResolveReplaysNext) {
  // Drawing a whole batch, then resolving it, must give the ranks a
  // one-at-a-time next() loop gave on the same seed (its first ranks
  // and the sum of all 100k, recorded), and each draw must take the
  // bucket, then the coin, from the stream and nothing more, so
  // whatever the stream draws afterwards is untouched too.
  struct Case {
    std::uint64_t n;
    double theta;
    std::vector<std::uint64_t> first;
    std::uint64_t sum;
  };
  constexpr std::size_t kKeys = 100000;
  const Case cases[] = {
      {1000000, 0.99, {939, 176, 1, 46, 92, 2, 94769, 3, 11, 3504, 147, 22157},
       7373292215},
      {123, 0.5, {84, 34, 0, 83, 14, 73, 53, 13, 46, 1, 36, 47}, 4305271},
  };
  for (const Case& tc : cases) {
    const ZipfAliasSampler zipf(tc.n, tc.theta);
    sim::Rng batched(0xba7c4);
    sim::Rng raw(0xba7c4);
    std::vector<ZipfAliasSampler::Draw> draws(kKeys);
    for (ZipfAliasSampler::Draw& d : draws) {
      d = zipf.draw(batched);
      zipf.prefetch(d.bucket);
      ASSERT_EQ(d.bucket, raw.next_u64() % tc.n);
      ASSERT_EQ(d.coin, raw.next_double());
    }
    EXPECT_EQ(batched.next_u64(), raw.next_u64()) << "n " << tc.n;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kKeys; ++i) {
      const std::uint64_t rank = zipf.resolve(draws[i]);
      if (i < tc.first.size()) {
        EXPECT_EQ(rank, tc.first[i]) << "n " << tc.n << ", key " << i;
      }
      sum += rank;
    }
    EXPECT_EQ(sum, tc.sum) << "n " << tc.n;
  }
}

// Random schedule/harvest streams against sim::TimerWheel, the structure
// the calendar replaced: each harvest, sorted by (at, id), must be exactly
// what the wheel fires at the same limit. Ids rise with schedule order,
// so the wheel's (deadline, schedule order) is (at, id) order. The
// streams cover overdue schedules, at == limit and at == limit + 1,
// records past the near window, repeated harvests at one limit, limits
// behind the clock, jumps longer than the whole window, non-zero
// origins, and a reset to a new origin with records still pending.
TEST(IssueCalendar, HarvestsExactlyWhatTheTimerWheelFires) {
  constexpr std::int64_t kTick = std::int64_t{1} << 16;  // 65.536 us
  constexpr std::int64_t kWindow = 4096 * kTick;         // the near ring
  constexpr int kOps = 20000;
  struct {
    int overdue = 0, far = 0, at_limit = 0, below_at = 0, repeat = 0,
        behind = 0, long_jump = 0;
  } seen;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    // Odd seeds start at an origin that is neither zero nor tick-aligned.
    sim::SimTime origin{
        seed % 2 == 1 ? 12'345'678'901 + 7 * static_cast<std::int64_t>(seed)
                      : 0};
    IssueCalendar calendar;
    calendar.reset(origin, kOps);
    sim::TimerWheel wheel(sim::Duration::from_micros(64), origin);
    std::int64_t now = origin.ns();
    std::uint32_t next_id = 0;
    std::vector<std::int64_t> recent;  // latest schedule times
    std::vector<IssueCalendar::Entry> got;
    std::vector<sim::TimerWheel::Expired> want;
    const auto harvest_both = [&](std::int64_t limit) {
      got.clear();
      want.clear();
      calendar.harvest(sim::SimTime{limit}, got);
      wheel.advance(sim::SimTime{limit}, want);
      now = std::max(now, limit);
      std::sort(got.begin(), got.end(),
                [](const IssueCalendar::Entry& a,
                   const IssueCalendar::Entry& b) {
                  return a.at == b.at ? a.id < b.id : a.at < b.at;
                });
      ASSERT_EQ(got.size(), want.size()) << "limit " << limit;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].at, want[i].deadline) << "limit " << limit;
        ASSERT_EQ(got[i].id, want[i].payload) << "limit " << limit;
      }
    };
    for (int op = 0; op < kOps; ++op) {
      if (op == kOps / 2) {
        // Reuse: a reset drops what is pending and moves the origin.
        origin = sim::SimTime{now + rng.uniform_int(1, kWindow)};
        calendar.reset(origin, kOps);
        wheel.reset(origin);
        now = origin.ns();
        recent.clear();
      }
      if (rng.next_double() < 0.65) {
        const double kind = rng.next_double();
        std::int64_t at;
        if (kind < 0.1) {
          at = rng.uniform_int(origin.ns(), now);
          ++seen.overdue;
        } else if (kind < 0.45) {
          at = now + rng.uniform_int(1, 64 * kTick);
        } else if (kind < 0.8) {
          at = now + rng.uniform_int(1, kWindow);
        } else {
          at = now + rng.uniform_int(kWindow, 8 * kWindow);
          ++seen.far;
        }
        calendar.schedule(sim::SimTime{at}, next_id);
        wheel.schedule(sim::SimTime{at}, next_id);
        ++next_id;
        recent.push_back(at);
        if (recent.size() > 64) recent.erase(recent.begin());
        continue;
      }
      const double kind = rng.next_double();
      std::int64_t limit;
      if (kind < 0.35) {
        limit = now + rng.uniform_int(0, 16 * kTick);
      } else if (kind < 0.6 && !recent.empty()) {
        // A recent schedule as the limit, or one below it.
        const std::int64_t at = recent[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(recent.size()) - 1))];
        const bool at_limit = rng.bernoulli(0.5);
        limit = at_limit ? at : at - 1;
        if (limit > now) ++(at_limit ? seen.at_limit : seen.below_at);
      } else if (kind < 0.7) {
        limit = now;
        ++seen.repeat;
      } else if (kind < 0.8) {
        limit = now - rng.uniform_int(1, kWindow);
        ++seen.behind;
      } else if (kind < 0.95) {
        limit = now + rng.uniform_int(kTick, kWindow);
      } else {
        limit = now + rng.uniform_int(kWindow + 1, 4 * kWindow);
        ++seen.long_jump;
      }
      harvest_both(limit);
      if (HasFatalFailure()) return;
    }
    // Past every schedule: both hand out all that is left.
    harvest_both(now + 16 * kWindow);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(wheel.empty());
  }
  EXPECT_GT(seen.overdue, 0);
  EXPECT_GT(seen.far, 0);
  EXPECT_GT(seen.at_limit, 0);
  EXPECT_GT(seen.below_at, 0);
  EXPECT_GT(seen.repeat, 0);
  EXPECT_GT(seen.behind, 0);
  EXPECT_GT(seen.long_jump, 0);
}

bool same_issue(const ClientIssue& a, const ClientIssue& b) {
  return a.at == b.at && a.client == b.client && a.key == b.key &&
         a.is_read == b.is_read;
}

/// `round` read back in order through `slices` slices, one after the
/// other. Counts in `misplaced` every issue whose index, as merge_slice
/// passes it, is not its position in the round.
std::vector<ClientIssue> read_back(IssueRuns& round, std::size_t slices,
                                   std::size_t& misplaced) {
  std::vector<ClientIssue> out;
  round.split(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    if (round.slice_begin(s) != out.size()) ++misplaced;
    round.merge_slice(s, [&](const ClientIssue& issue, std::size_t i) {
      if (i != out.size()) ++misplaced;
      out.push_back(issue);
    });
  }
  if (round.slice_begin(slices) != out.size()) ++misplaced;
  return out;
}

// Partitions decide only which calendar holds a client and which thread
// collects it, never what a round hands out. One seeded outcome timeline
// (served, shed, failed and timed-out outcomes, with retry_failures and
// jitter on and a retry budget that runs dry) drives populations of 1,
// 2, 3, 4, 16 and 17 partitions, collected inline and on a 4-thread
// pool. Every round must match the single-partition run issue for
// issue, and so must the retry count and the budget. Each round read
// back through 2, 3 and 5 slices must be the round read in one, with
// every issue passed at its position in the round; so must a single
// run shaped like the open-loop arrivals.
TEST(ClosedLoopPopulation, PartitionsDoNotChangeTheIssues) {
  constexpr std::size_t kClients = 1000;
  constexpr int kRounds = 400;
  const ZipfAliasSampler zipf(5000, 0.9);
  TrafficConfig traffic;
  traffic.arrival_rate_per_s = 20000.0;  // a 50 ms think mean
  traffic.read_fraction = 0.7;
  traffic.seed = 0x9a27;
  resilience::BackoffConfig backoff;
  backoff.base = sim::Duration::from_millis(2.0);
  backoff.cap = sim::Duration::from_millis(40.0);
  backoff.jitter = 0.5;
  backoff.max_retries = 4;
  backoff.retry_failures = true;
  const resilience::RetryBudgetConfig budget_config{
      .enabled = true, .earn_per_request = 0.1, .cap = 8.0};

  struct Trace {
    std::vector<std::vector<ClientIssue>> rounds;
    std::uint64_t retries = 0;
    std::uint64_t spent = 0;
    std::uint64_t denied = 0;
    double tokens = 0.0;
    std::size_t outcomes[kNumOutcomeKinds] = {};
  };
  const auto run = [&](std::size_t partitions, sim::TaskPool* pool) {
    resilience::RetryBudget budget(budget_config);
    budget.reset();
    ClosedLoopPopulation population;
    population.reset(traffic, kClients, backoff, &budget,
                     sim::SimTime::zero(), partitions);
    EXPECT_EQ(population.partitions(), partitions);
    // Drawn in issue order, so it is the same timeline as long as the
    // issues are.
    sim::Rng timeline(0x0c0e);
    Trace trace;
    sim::SimTime horizon = sim::SimTime::zero();
    IssueRuns runs;
    std::size_t misplaced = 0;
    std::size_t resliced = 0;
    for (int round = 0; round < kRounds; ++round) {
      horizon = horizon + sim::Duration::from_millis(5.0);
      const std::size_t issues =
          population.collect_runs(horizon, zipf, runs, pool);
      EXPECT_EQ(runs.runs(), partitions);
      const std::vector<ClientIssue> due = read_back(runs, 1, misplaced);
      EXPECT_EQ(due.size(), issues);
      for (const std::size_t slices : {2, 3, 5}) {
        const std::vector<ClientIssue> sliced =
            read_back(runs, slices, misplaced);
        if (!std::equal(sliced.begin(), sliced.end(), due.begin(), due.end(),
                        same_issue)) {
          ++resliced;
        }
      }
      trace.rounds.push_back(due);
      for (const ClientIssue& issue : due) {
        const double u = timeline.next_double();
        const OutcomeKind outcome = u < 0.55   ? OutcomeKind::kServed
                                    : u < 0.75 ? OutcomeKind::kShed
                                    : u < 0.9  ? OutcomeKind::kFailed
                                               : OutcomeKind::kTimedOut;
        ++trace.outcomes[static_cast<std::size_t>(outcome)];
        population.complete(
            issue.client,
            issue.at + sim::Duration::from_micros(
                           static_cast<double>(timeline.uniform_int(50, 9000))),
            outcome);
      }
    }
    EXPECT_EQ(misplaced, 0u);
    EXPECT_EQ(resliced, 0u) << "rounds that slicing changed";
    trace.retries = population.retries();
    trace.spent = budget.spent();
    trace.denied = budget.denied();
    trace.tokens = budget.tokens();
    return trace;
  };

  const Trace want = run(1, nullptr);
  // The timeline exercised every outcome, the retries and a dry budget.
  for (const OutcomeKind kind :
       {OutcomeKind::kServed, OutcomeKind::kShed, OutcomeKind::kFailed,
        OutcomeKind::kTimedOut}) {
    EXPECT_GT(want.outcomes[static_cast<std::size_t>(kind)], 0u);
  }
  EXPECT_GT(want.retries, 0u);
  EXPECT_GT(want.spent, 0u);
  EXPECT_GT(want.denied, 0u);
  EXPECT_GT(want.rounds.back().size(), 0u);

  sim::TaskPool pool(4);
  for (const std::size_t partitions : {1, 2, 3, 4, 16, 17}) {
    for (sim::TaskPool* on : {static_cast<sim::TaskPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message() << partitions << " partitions, "
                                        << (on ? "pool" : "inline"));
      const Trace got = run(partitions, on);
      ASSERT_EQ(got.rounds.size(), want.rounds.size());
      for (std::size_t r = 0; r < want.rounds.size(); ++r) {
        const std::vector<ClientIssue>& a = got.rounds[r];
        const std::vector<ClientIssue>& b = want.rounds[r];
        ASSERT_EQ(a.size(), b.size()) << "round " << r;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].at, b[i].at) << "round " << r << ", issue " << i;
          ASSERT_EQ(a[i].client, b[i].client) << "round " << r;
          ASSERT_EQ(a[i].key, b[i].key) << "round " << r;
          ASSERT_EQ(a[i].is_read, b[i].is_read) << "round " << r;
        }
      }
      EXPECT_EQ(got.retries, want.retries);
      EXPECT_EQ(got.spent, want.spent);
      EXPECT_EQ(got.denied, want.denied);
      EXPECT_EQ(got.tokens, want.tokens);
    }
  }

  // The open-loop shape: one run in arrival order, all client 0, with
  // runs of equal arrival times. Every slicing reads it back unchanged,
  // more slices than issues and a run of one repeated time included.
  const std::vector<std::vector<std::int64_t>> shapes = {
      {0, 0, 0, 5, 5, 9, 12, 12, 12, 12, 20, 31, 31, 40, 40, 40, 40, 41},
      {7, 7, 7, 7},
      {3}};
  for (const std::vector<std::int64_t>& times : shapes) {
    IssueRuns runs;
    runs.clear(1);
    for (std::size_t i = 0; i < times.size(); ++i) {
      runs.run(0).push_back(ClientIssue{sim::SimTime{times[i]}, 0, i % 3 != 0,
                                        1000 + i});
    }
    const std::vector<ClientIssue> arrivals = runs.run(0);
    for (const std::size_t slices : {1, 2, 3, 5, 7}) {
      SCOPED_TRACE(::testing::Message()
                   << times.size() << " arrivals, " << slices << " slices");
      std::size_t misplaced = 0;
      const std::vector<ClientIssue> got = read_back(runs, slices, misplaced);
      EXPECT_EQ(misplaced, 0u);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), arrivals.begin(),
                             arrivals.end(), same_issue));
    }
  }
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
