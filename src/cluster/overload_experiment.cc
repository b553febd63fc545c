#include "cluster/overload_experiment.h"

#include <string>

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

/// Fixed 50 ms, no jitter, no retry cap: the naive clients' backoff.
resilience::BackoffConfig naive_backoff() {
  resilience::BackoffConfig backoff;
  backoff.kind = resilience::BackoffKind::kFixed;
  backoff.base = sim::Duration::from_millis(50.0);
  backoff.cap = sim::Duration::from_millis(50.0);
  backoff.jitter = 0.0;
  backoff.max_retries = resilience::kUnlimitedRetries;
  backoff.retry_failures = true;
  return backoff;
}

}  // namespace

std::vector<CellSpec> overload_cells(const OverloadExperimentConfig& config) {
  CellSpec base;
  base.scenario = config.scenario;
  base.topology = config.topology;
  base.engine.balancer = config.balancer;
  base.engine.balancer.policy = config.placement;
  base.engine.balancer.replication = config.replication;
  base.engine.traffic = config.traffic;
  base.warmup = config.warmup;
  base.tail = config.observe;
  base.attacked_pods = config.attacked_pods;
  base.distance_m = config.attack_distance_m;
  base.frequency_hz = config.frequency_hz;
  base.spl_air_db = config.spl_air_db;
  base.engine.serving.enabled = true;
  base.engine.serving.closed_loop = true;
  base.engine.serving.clients = config.clients;
  base.engine.serving.server.queue_limit = config.queue_limit;
  base.engine.serving.server.admission = config.admission;
  base.engine.breaker = config.breaker;

  std::vector<CellSpec> cells;
  for (const OverloadPolicy policy : config.policies) {
    for (const bool breaker_on : config.breaker_settings) {
      for (const sim::Duration attack : config.attack_durations) {
        CellSpec& cell = cells.emplace_back(base);
        ServingModeConfig& mode = cell.engine.serving;
        if (policy == OverloadPolicy::kNaive) {
          mode.backoff = naive_backoff();  // and no retry budget
          // The wasted-work ingredient: expired requests still burn
          // device time, so during a storm the fleet is 100% busy
          // serving requests nobody is waiting for.
          mode.server.drop_expired = false;
        } else {
          mode.backoff = config.governed_backoff;
          mode.retry_budget = config.governed_budget;
          mode.server.drop_expired = true;
        }
        cell.engine.breaker.enabled = breaker_on;
        cell.attack = attack;
      }
    }
  }
  return cells;
}

OverloadPolicy overload_policy(const CellSpec& cell) {
  return cell.engine.serving.server.drop_expired ? OverloadPolicy::kGoverned
                                                 : OverloadPolicy::kNaive;
}

sim::Table build_overload_recovery_table(
    const OverloadExperimentConfig& config,
    const std::vector<CellResult>& results) {
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
  for (const CellResult& r : results) {
    table.row()
        .cell(overload_policy_name(overload_policy(r.cell)))
        .cell(r.cell.engine.breaker.enabled ? "on" : "off")
        .cell(r.cell.attack.seconds(), 0)
        .cell(static_cast<std::int64_t>(r.requests))
        .cell(static_cast<std::int64_t>(r.client_retries))
        .cell(r.attack_availability * 100.0, 3)
        .cell(r.post_availability * 100.0, 3);
    if (r.recovered) {
      table.cell(r.recovery_s, 2);
    } else {
      table.dash();  // never recovered inside the observation window
    }
    table.cell(static_cast<std::int64_t>(r.collapsed_windows))
        .cell(static_cast<std::int64_t>(r.retry_budget_spent))
        .cell(static_cast<std::int64_t>(r.retry_budget_denied))
        .cell(static_cast<std::int64_t>(r.breaker_opens))
        .cell(static_cast<std::int64_t>(r.breaker_short_circuits))
        .cell(static_cast<std::int64_t>(r.legs_cancelled))
        .cell(static_cast<std::int64_t>(r.max_queue_depth))
        .cell(static_cast<std::int64_t>(r.drains));
  }
  return table;
}

}  // namespace deepnote::cluster
