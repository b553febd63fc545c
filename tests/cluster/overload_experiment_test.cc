// Overload-recovery experiment tests: the metastable-failure signature
// (naive retries stay collapsed after the attack ends; governed retries
// recover within seconds), the governance telemetry that explains why,
// byte-identical cells at any wave parallelism, and a golden-CSV pin of
// the whole grid.
#include "cluster/overload_experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/trial_runner.h"

namespace deepnote::cluster {
namespace {

// 0.25 s warmup, 5 s / 20 s attacks, 30 s of recovery observation. The
// attacks and the collapse physics are unscaled; only the observation
// window shrinks, so "never recovered" here means "collapsed for the
// full 30 s the cell watched" (the bench binary's default scale 1.0
// extends that to 10 sim minutes).
constexpr double kScale = 0.05;

const std::vector<OverloadTrialRow>& cached_rows() {
  static const std::vector<OverloadTrialRow> rows =
      run_overload_experiment(overload_experiment_config(kScale));
  return rows;
}

const OverloadTrialRow& find_row(OverloadPolicy policy, bool breaker_on,
                                 double attack_s) {
  for (const OverloadTrialRow& row : cached_rows()) {
    if (row.policy == policy && row.breaker_on == breaker_on &&
        row.attack.seconds() == attack_s) {
      return row;
    }
  }
  static OverloadTrialRow missing;
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
    const OverloadTrialRow& naive =
        find_row(OverloadPolicy::kNaive, false, attack_s);
    EXPECT_FALSE(naive.recovered) << attack_s;
    EXPECT_LT(naive.post_availability, 0.5) << attack_s;
    EXPECT_GT(naive.collapsed_windows, 10u) << attack_s;
    // The storm: retries dominate the request stream.
    EXPECT_GT(naive.retries, naive.requests / 2) << attack_s;

    const OverloadTrialRow& governed =
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
  const OverloadTrialRow& naive_breaker =
      find_row(OverloadPolicy::kNaive, true, 5.0);
  EXPECT_FALSE(naive_breaker.recovered);
  EXPECT_LT(naive_breaker.post_availability, 0.5);

  const OverloadTrialRow& governed_only =
      find_row(OverloadPolicy::kGoverned, false, 5.0);
  // Far better than the naive collapse, far worse than full governance.
  EXPECT_GT(governed_only.post_availability,
            find_row(OverloadPolicy::kNaive, false, 5.0).post_availability);
}

TEST(OverloadExperiment, GovernanceTelemetryExplainsTheRecovery) {
  const OverloadTrialRow& governed =
      find_row(OverloadPolicy::kGoverned, true, 20.0);
  EXPECT_GT(governed.retry_budget_spent, 0u);
  EXPECT_GT(governed.retry_budget_denied, 0u);
  EXPECT_GT(governed.breaker_opens, 0u);
  EXPECT_GT(governed.breaker_short_circuits, 0u);
  // Naive cells have no budget: counters must stay zero.
  const OverloadTrialRow& naive = find_row(OverloadPolicy::kNaive, false, 20.0);
  EXPECT_EQ(naive.retry_budget_spent, 0u);
  EXPECT_EQ(naive.retry_budget_denied, 0u);
  // The storm pins the queues at the admission limit.
  EXPECT_EQ(naive.max_queue_depth,
            overload_experiment_config(kScale).queue_limit);
}

// One cell, wave-parallel vs inline: the scripted pod attack, the
// breakers, the budget and the closed-loop retry jitter all land
// byte-identically regardless of DEEPNOTE_JOBS.
TEST(OverloadExperiment, CellIsBitIdenticalAcrossEngineJobs) {
  const OverloadExperimentConfig config = overload_experiment_config(kScale);
  const sim::Duration attack = sim::Duration::from_seconds(5.0);
  const std::uint64_t cell_seed = sim::trial_seed(config.seed, 7);
  const OverloadTrialRow a = run_overload_cell(
      config, OverloadPolicy::kGoverned, true, attack, cell_seed, nullptr, 1);
  const OverloadTrialRow b = run_overload_cell(
      config, OverloadPolicy::kGoverned, true, attack, cell_seed, nullptr, 4);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.retries, b.retries);
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
  OverloadExperimentConfig config = overload_experiment_config(kScale);
  config.attack_durations = {sim::Duration::from_seconds(5.0)};
  config.policies = {OverloadPolicy::kGoverned};
  config.jobs = 1;
  const auto serial = run_overload_experiment(config);
  config.jobs = 4;
  const auto parallel = run_overload_experiment(config);
  EXPECT_EQ(build_overload_recovery_table(config, serial).to_csv(),
            build_overload_recovery_table(config, parallel).to_csv());
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

TEST(OverloadExperiment, GoldenOverloadRecoveryTable) {
  const OverloadExperimentConfig config = overload_experiment_config(kScale);
  diff_against_golden(build_overload_recovery_table(config, cached_rows()),
                      "overload_recovery.csv");
}

}  // namespace
}  // namespace deepnote::cluster
