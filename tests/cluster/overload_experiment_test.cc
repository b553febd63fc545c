// Overload-recovery experiment tests: the metastable-failure signature
// (naive retries stay collapsed after the attack ends; governed retries
// recover within seconds), the governance telemetry that explains why,
// byte-identical cells at any wave parallelism, and a golden-CSV pin of
// the whole grid.
#include "cluster/overload_experiment.h"

#include <gtest/gtest.h>

#include <vector>

#include "golden_table.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {
namespace {

// 0.25 s warmup, 5 s / 20 s attacks, 30 s of recovery observation. The
// attacks and the collapse physics are unscaled; only the observation
// window shrinks, so "never recovered" here means "collapsed for the
// full 30 s the cell watched" (the bench binary's default scale 1.0
// extends that to 10 sim minutes).
constexpr double kScale = 0.05;

const OverloadExperimentConfig& config() {
  static const OverloadExperimentConfig config =
      overload_experiment_config(kScale);
  return config;
}

const std::vector<CellResult>& cached_results() {
  static const std::vector<CellResult> results =
      run_grid(overload_cells(config()), config().seed, 0);
  return results;
}

const CellResult& find_row(OverloadPolicy policy, bool breaker_on,
                           double attack_s) {
  for (const CellResult& row : cached_results()) {
    if (overload_policy(row.cell) == policy &&
        row.cell.engine.breaker.enabled == breaker_on &&
        row.cell.attack.seconds() == attack_s) {
      return row;
    }
  }
  static CellResult missing;
  ADD_FAILURE() << "overload row not found";
  return missing;
}

// The headline. Naive retries (fixed un-jittered backoff, unlimited
// attempts, expired requests still served): goodput stays collapsed for
// the entire post-attack window — long after the 5 s trigger is gone —
// because the retry population alone holds the fleet past capacity.
// Full governance (capped exponential + jitter, retry budget, expired
// dropping, breakers): the same population drains within 30 s.
TEST(OverloadExperiment, MetastableCollapseAndGovernedRecovery) {
  for (const double attack_s : {5.0, 20.0}) {
    const CellResult& naive =
        find_row(OverloadPolicy::kNaive, false, attack_s);
    EXPECT_FALSE(naive.recovered) << attack_s;
    EXPECT_LT(naive.post_availability, 0.5) << attack_s;
    EXPECT_GT(naive.collapsed_windows, 10u) << attack_s;
    // The storm: retries dominate the request stream.
    EXPECT_GT(naive.client_retries, naive.requests / 2) << attack_s;

    const CellResult& governed =
        find_row(OverloadPolicy::kGoverned, true, attack_s);
    EXPECT_TRUE(governed.recovered) << attack_s;
    EXPECT_LE(governed.recovery_s, 30.0) << attack_s;
  }
}

// Breakers alone do not fix a naive retry storm (the clients keep
// hammering; short-circuits just relocate the rejection), and retry
// shaping alone caps the depth of the collapse but does not fully break
// the loop — the grid's middle rows are the ablation.
TEST(OverloadExperiment, SingleMechanismsAreNotEnough) {
  const CellResult& naive_breaker =
      find_row(OverloadPolicy::kNaive, true, 5.0);
  EXPECT_FALSE(naive_breaker.recovered);
  EXPECT_LT(naive_breaker.post_availability, 0.5);

  const CellResult& governed_only =
      find_row(OverloadPolicy::kGoverned, false, 5.0);
  // Far better than the naive collapse, far worse than full governance.
  EXPECT_GT(governed_only.post_availability,
            find_row(OverloadPolicy::kNaive, false, 5.0).post_availability);
}

TEST(OverloadExperiment, GovernanceTelemetryExplainsTheRecovery) {
  const CellResult& governed =
      find_row(OverloadPolicy::kGoverned, true, 20.0);
  EXPECT_GT(governed.retry_budget_spent, 0u);
  EXPECT_GT(governed.retry_budget_denied, 0u);
  EXPECT_GT(governed.breaker_opens, 0u);
  EXPECT_GT(governed.breaker_short_circuits, 0u);
  // Naive cells have no budget: counters must stay zero.
  const CellResult& naive = find_row(OverloadPolicy::kNaive, false, 20.0);
  EXPECT_EQ(naive.retry_budget_spent, 0u);
  EXPECT_EQ(naive.retry_budget_denied, 0u);
  // The storm pins the queues at the admission limit.
  EXPECT_EQ(naive.max_queue_depth, config().queue_limit);
}

// One cell, wave-parallel vs inline: the scripted pod attack, the
// breakers, the budget and the closed-loop retry jitter all land
// byte-identically regardless of DEEPNOTE_JOBS.
TEST(OverloadExperiment, CellIsBitIdenticalAcrossEngineJobs) {
  OverloadExperimentConfig narrow = config();
  narrow.policies = {OverloadPolicy::kGoverned};
  narrow.breaker_settings = {true};
  narrow.attack_durations = {sim::Duration::from_seconds(5.0)};
  CellSpec cell = overload_cells(narrow).front();
  cell.seed = sim::trial_seed(narrow.seed, 7);
  cell.engine.jobs = 1;
  const CellResult a = run_cell(cell);
  cell.engine.jobs = 4;
  const CellResult b = run_cell(cell);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_DOUBLE_EQ(a.attack_availability, b.attack_availability);
  EXPECT_DOUBLE_EQ(a.post_availability, b.post_availability);
  EXPECT_DOUBLE_EQ(a.recovery_s, b.recovery_s);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.collapsed_windows, b.collapsed_windows);
  EXPECT_EQ(a.retry_budget_spent, b.retry_budget_spent);
  EXPECT_EQ(a.retry_budget_denied, b.retry_budget_denied);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.breaker_short_circuits, b.breaker_short_circuits);
  EXPECT_EQ(a.legs_cancelled, b.legs_cancelled);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.drains, b.drains);
}

TEST(OverloadExperiment, DeterministicAcrossTrialJobCounts) {
  OverloadExperimentConfig narrow = config();
  narrow.attack_durations = {sim::Duration::from_seconds(5.0)};
  narrow.policies = {OverloadPolicy::kGoverned};
  const std::vector<CellSpec> cells = overload_cells(narrow);
  EXPECT_EQ(
      build_overload_recovery_table(narrow, run_grid(cells, narrow.seed, 1))
          .to_csv(),
      build_overload_recovery_table(narrow, run_grid(cells, narrow.seed, 4))
          .to_csv());
}

TEST(OverloadExperiment, GoldenOverloadRecoveryTable) {
  diff_against_golden(build_overload_recovery_table(config(), cached_results()),
                      "overload_recovery.csv");
}

}  // namespace
}  // namespace deepnote::cluster
