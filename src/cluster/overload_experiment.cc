#include "cluster/overload_experiment.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/cell.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kNaive: return "naive";
    case OverloadPolicy::kGoverned: return "governed";
  }
  return "?";
}

OverloadExperimentConfig overload_experiment_config(double scale) {
  OverloadExperimentConfig config;
  // 1800 req/s across 4096 clients (~2.3 s no-load think time): ~70%
  // fleet utilization at baseline, but the moment two pods degrade the
  // surviving pod is over capacity and queues pin at the limit. The
  // population size is what makes the collapse *sustainable*: during a
  // retry storm each client's cycle is roughly deadline + backoff
  // (~0.55 s naive), so the population alone can offer ~7k legs/s —
  // over the recovered fleet's full capacity, which is the metastable
  // sustain condition (load from retries alone exceeds capacity even
  // after the trigger clears).
  config.traffic.arrival_rate_per_s = 1800.0;
  config.clients = 4096;
  // A tight deadline makes queue wait (not device health) the failure
  // mode: at 128 queued ops a healthy drive is ~1 s behind, double the
  // deadline, so a full queue serves nothing but dead requests.
  config.balancer.request_deadline = sim::Duration::from_millis(500.0);

  config.naive_backoff.kind = resilience::BackoffKind::kFixed;
  config.naive_backoff.base = sim::Duration::from_millis(50.0);
  config.naive_backoff.cap = sim::Duration::from_millis(50.0);
  config.naive_backoff.jitter = 0.0;
  config.naive_backoff.max_retries = resilience::kUnlimitedRetries;
  config.naive_backoff.retry_failures = true;

  config.governed_backoff.kind = resilience::BackoffKind::kExponential;
  config.governed_backoff.base = sim::Duration::from_millis(10.0);
  config.governed_backoff.cap = sim::Duration::from_seconds(1.0);
  config.governed_backoff.jitter = 1.0;  // full jitter: decorrelate waves
  config.governed_backoff.max_retries = 6;
  config.governed_backoff.retry_failures = true;

  config.governed_budget.enabled = true;
  config.governed_budget.earn_per_request = 0.5;
  config.governed_budget.cap = 32.0;

  config.warmup = sim::Duration::from_seconds(5.0 * scale);
  config.observe = sim::Duration::from_seconds(600.0 * scale);
  return config;
}

namespace {

OverloadTrialRow make_overload_row(const OverloadExperimentConfig& config,
                                   OverloadPolicy policy, bool breaker_on,
                                   sim::Duration attack,
                                   const EngineReport& report,
                                   const SloTracker& slo) {
  OverloadTrialRow row;
  row.policy = policy;
  row.breaker_on = breaker_on;
  row.attack = attack;
  row.requests = report.traffic.requests;
  row.retries = report.serving.client_retries;
  row.attack_availability = slo.focus_availability();
  row.retry_budget_spent = report.serving.retry_budget_spent;
  row.retry_budget_denied = report.serving.retry_budget_denied;
  row.breaker_opens = report.serving.breaker_opens;
  row.breaker_short_circuits = report.serving.breaker_short_circuits;
  row.legs_cancelled = report.serving.legs_cancelled;
  row.max_queue_depth = report.serving.max_queue_depth;
  row.drains = report.stats.drains;

  // Post-attack accounting straight off the SLO's fixed windows. The
  // recovery clock stops at the END of the first window at/above the
  // threshold — a conservative, window-granular reading.
  const sim::SimTime attack_off = sim::SimTime::zero() + config.warmup + attack;
  const std::int64_t window_ns = slo.config().window.ns();
  const std::vector<SloTracker::Window>& windows = slo.windows();
  std::uint64_t post_ok = 0;
  std::uint64_t post_fail = 0;
  row.recovery_s = config.observe.seconds();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::int64_t begin_ns =
        slo.start().ns() + static_cast<std::int64_t>(i) * window_ns;
    if (begin_ns < attack_off.ns()) continue;
    const SloTracker::Window& w = windows[i];
    post_ok += w.ok;
    post_fail += w.fail;
    if (w.ok + w.fail == 0) continue;  // no arrivals: says nothing
    const double avail = w.availability();
    if (avail < config.collapsed_availability) ++row.collapsed_windows;
    if (!row.recovered && avail >= config.recovered_availability) {
      row.recovered = true;
      row.recovery_s =
          static_cast<double>(begin_ns + window_ns - attack_off.ns()) * 1e-9;
    }
  }
  const std::uint64_t post_total = post_ok + post_fail;
  row.post_availability =
      post_total == 0
          ? 1.0
          : static_cast<double>(post_ok) / static_cast<double>(post_total);
  return row;
}

}  // namespace

OverloadTrialRow run_overload_cell(const OverloadExperimentConfig& config,
                                   OverloadPolicy policy, bool breaker_on,
                                   sim::Duration attack,
                                   std::uint64_t cell_seed,
                                   std::shared_ptr<const ZipfAliasSampler> zipf,
                                   unsigned engine_jobs) {
  CellSpec spec;
  spec.scenario = config.scenario;
  spec.topology = config.topology;
  spec.policy = config.placement;
  spec.replication = config.replication;
  spec.balancer = config.balancer;
  spec.traffic = config.traffic;
  spec.warmup = config.warmup;
  spec.attack = attack;
  spec.tail = config.observe;
  spec.seed = cell_seed;
  spec.zipf = std::move(zipf);
  spec.jobs = engine_jobs;
  ExperimentCell cell(spec);

  ServingModeConfig& mode = cell.engine.serving;
  mode.enabled = true;
  mode.closed_loop = true;
  mode.clients = config.clients;
  mode.server.queue_limit = config.queue_limit;
  mode.server.admission = config.admission;
  if (policy == OverloadPolicy::kNaive) {
    mode.backoff = config.naive_backoff;
    mode.retry_budget.enabled = false;
    // The wasted-work ingredient: expired requests still burn device
    // time, so during a storm the fleet is 100% busy serving requests
    // nobody is waiting for.
    mode.server.drop_expired = false;
  } else {
    mode.backoff = config.governed_backoff;
    mode.retry_budget = config.governed_budget;
    mode.server.drop_expired = true;
  }
  cell.engine.breaker = config.breaker;
  cell.engine.breaker.enabled = breaker_on;
  ShardedClusterEngine engine(cell.cluster.topology(),
                              cell.cluster.device_pointers(), cell.engine);

  // Every attacked pod goes on at attack_on and off at attack_off. The
  // engine takes its actions sorted by time, so all the on-actions come
  // first, then all the off-actions.
  std::vector<TimelineAction> actions;
  std::vector<TimelineAction> offs;
  for (const std::size_t pod : config.attacked_pods) {
    std::vector<TimelineAction> pulse =
        cell.pod_attack(pod, config.frequency_hz, config.spl_air_db,
                        config.attack_distance_m);
    actions.push_back(std::move(pulse[0]));
    offs.push_back(std::move(pulse[1]));
  }
  for (TimelineAction& off : offs) actions.push_back(std::move(off));
  const EngineReport report =
      engine.run(sim::SimTime::zero(), cell.slo, std::move(actions));
  return make_overload_row(config, policy, breaker_on, attack, report,
                           cell.slo);
}

std::vector<OverloadTrialRow> run_overload_experiment(
    const OverloadExperimentConfig& config) {
  struct Cell {
    OverloadPolicy policy;
    bool breaker_on;
    sim::Duration attack;
  };
  std::vector<Cell> grid;
  grid.reserve(config.policies.size() * config.breaker_settings.size() *
               config.attack_durations.size());
  for (const OverloadPolicy policy : config.policies) {
    for (const bool breaker_on : config.breaker_settings) {
      for (const sim::Duration attack : config.attack_durations) {
        grid.push_back({policy, breaker_on, attack});
      }
    }
  }
  const auto zipf = std::make_shared<const ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  return sim::run_trials<OverloadTrialRow>(
      grid.size(), config.jobs, [&](std::size_t i) {
        return run_overload_cell(config, grid[i].policy, grid[i].breaker_on,
                                 grid[i].attack,
                                 sim::trial_seed(config.seed, i), zipf);
      });
}

sim::Table build_overload_recovery_table(
    const OverloadExperimentConfig& config,
    const std::vector<OverloadTrialRow>& rows) {
  sim::Table table(
      "Overload recovery vs. retry governance (two-pod " +
      sim::format_fixed(config.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(config.spl_air_db, 0) + " dB pulse, " +
      std::to_string(config.topology.pods) + " pods x " +
      std::to_string(config.topology.bays_per_pod) + " bays, " +
      std::to_string(config.clients) + " closed-loop clients)");
  table.set_columns({"Policy", "Breaker", "Attack s", "Requests", "Retries",
                     "Attack avail %", "Post avail %", "Recovery s",
                     "Collapsed", "Budget spent", "Budget denied", "Opens",
                     "Short circ", "Cancelled", "Max depth", "Drains"});
  for (const OverloadTrialRow& row : rows) {
    table.row()
        .cell(overload_policy_name(row.policy))
        .cell(row.breaker_on ? "on" : "off")
        .cell(row.attack.seconds(), 0)
        .cell(static_cast<std::int64_t>(row.requests))
        .cell(static_cast<std::int64_t>(row.retries))
        .cell(row.attack_availability * 100.0, 3)
        .cell(row.post_availability * 100.0, 3);
    if (row.recovered) {
      table.cell(row.recovery_s, 2);
    } else {
      table.dash();  // never recovered inside the observation window
    }
    table.cell(static_cast<std::int64_t>(row.collapsed_windows))
        .cell(static_cast<std::int64_t>(row.retry_budget_spent))
        .cell(static_cast<std::int64_t>(row.retry_budget_denied))
        .cell(static_cast<std::int64_t>(row.breaker_opens))
        .cell(static_cast<std::int64_t>(row.breaker_short_circuits))
        .cell(static_cast<std::int64_t>(row.legs_cancelled))
        .cell(static_cast<std::int64_t>(row.max_queue_depth))
        .cell(static_cast<std::int64_t>(row.drains));
  }
  return table;
}

}  // namespace deepnote::cluster
