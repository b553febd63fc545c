#include "cluster/experiment.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/cell.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

ClusterExperimentConfig cluster_experiment_config(double scale) {
  ClusterExperimentConfig config;
  // 400 req/s keeps the dense same-pod layout below drive saturation at
  // baseline (~70 ops/s/bay against ~125 ops/s of seek-bound capacity),
  // so availability loss in the table is attack signal, not queueing.
  config.traffic.arrival_rate_per_s = 400.0;
  config.warmup = sim::Duration::from_seconds(10.0 * scale);
  config.attack_window = sim::Duration::from_seconds(40.0 * scale);
  config.cooldown = sim::Duration::from_seconds(10.0 * scale);
  return config;
}

namespace {

/// The cell inputs both grids in this file share; the caller fills in
/// the policy.
template <typename ConfigT>
CellSpec cell_spec(const ConfigT& config, std::uint64_t cell_seed,
                   std::shared_ptr<const ZipfAliasSampler> zipf,
                   unsigned engine_jobs) {
  CellSpec spec;
  spec.scenario = config.scenario;
  spec.topology = config.topology;
  spec.replication = config.replication;
  spec.balancer = config.balancer;
  spec.traffic = config.traffic;
  spec.warmup = config.warmup;
  spec.attack = config.attack_window;
  spec.tail = config.cooldown;
  spec.seed = cell_seed;
  spec.zipf = std::move(zipf);
  spec.jobs = engine_jobs;
  return spec;
}

}  // namespace

ClusterTrialRow run_cluster_cell(const ClusterExperimentConfig& config,
                                 PlacementPolicy policy,
                                 std::optional<double> distance_m,
                                 std::uint64_t cell_seed,
                                 std::shared_ptr<const ZipfAliasSampler> zipf,
                                 unsigned engine_jobs) {
  CellSpec spec = cell_spec(config, cell_seed, std::move(zipf), engine_jobs);
  spec.policy = policy;
  ExperimentCell cell(spec);
  std::vector<TimelineAction> actions;
  if (distance_m.has_value()) {
    actions = cell.pod_attack(config.attacked_pod, config.frequency_hz,
                              config.spl_air_db, *distance_m);
  }
  ShardedClusterEngine engine(cell.cluster.topology(),
                              cell.cluster.device_pointers(), cell.engine);
  const EngineReport report =
      engine.run(sim::SimTime::zero(), cell.slo, std::move(actions));

  ClusterTrialRow row;
  row.policy = policy;
  row.distance_m = distance_m;
  row.requests = report.traffic.requests;
  row.failed = cell.slo.failed();
  row.availability = cell.slo.availability();
  row.attack_availability = cell.slo.focus_availability();
  row.p50_ms = cell.slo.p50().millis();
  row.p99_ms = cell.slo.p99().millis();
  row.p999_ms = cell.slo.p999().millis();
  row.read_failovers = report.stats.read_failovers;
  row.hedged_reads = report.stats.hedged_reads;
  row.drains = report.stats.drains;
  row.readmits = report.stats.readmits;
  return row;
}

std::vector<ClusterTrialRow> run_cluster_experiment(
    const ClusterExperimentConfig& config) {
  struct Cell {
    PlacementPolicy policy;
    std::optional<double> distance_m;
  };
  std::vector<Cell> grid;
  grid.reserve(config.policies.size() * config.distances_m.size());
  for (PlacementPolicy policy : config.policies) {
    for (const auto& distance : config.distances_m) {
      grid.push_back({policy, distance});
    }
  }
  // One alias table serves every cell: it depends only on
  // (keyspace, theta), which the grid never varies.
  const auto zipf = std::make_shared<const ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  return sim::run_trials<ClusterTrialRow>(
      grid.size(), config.jobs, [&](std::size_t i) {
        return run_cluster_cell(config, grid[i].policy, grid[i].distance_m,
                                sim::trial_seed(config.seed, i), zipf);
      });
}

ServingExperimentConfig serving_experiment_config(double scale) {
  ServingExperimentConfig config;
  // Same offered rate as the availability experiment; the closed-loop
  // population converts it into a think mean (clients / rate), so the
  // no-load arrival process matches and every deviation under attack is
  // backpressure signal.
  config.traffic.arrival_rate_per_s = 400.0;
  config.warmup = sim::Duration::from_seconds(10.0 * scale);
  config.attack_window = sim::Duration::from_seconds(40.0 * scale);
  config.cooldown = sim::Duration::from_seconds(10.0 * scale);
  return config;
}

ServingTrialRow run_serving_cell(const ServingExperimentConfig& config,
                                 std::size_t queue_limit,
                                 serving::AdmissionPolicy admission,
                                 std::optional<double> distance_m,
                                 std::uint64_t cell_seed,
                                 std::shared_ptr<const ZipfAliasSampler> zipf,
                                 unsigned engine_jobs) {
  CellSpec spec = cell_spec(config, cell_seed, std::move(zipf), engine_jobs);
  spec.policy = config.policy;
  ExperimentCell cell(spec);
  std::vector<TimelineAction> actions;
  if (distance_m.has_value()) {
    actions = cell.pod_attack(config.attacked_pod, config.frequency_hz,
                              config.spl_air_db, *distance_m);
  }
  cell.engine.serving = config.serving;
  cell.engine.serving.enabled = true;
  cell.engine.serving.server.queue_limit = queue_limit;
  cell.engine.serving.server.admission = admission;
  ShardedClusterEngine engine(cell.cluster.topology(),
                              cell.cluster.device_pointers(), cell.engine);
  const EngineReport report =
      engine.run(sim::SimTime::zero(), cell.slo, std::move(actions));

  ServingTrialRow row;
  row.queue_limit = queue_limit;
  row.admission = admission;
  row.distance_m = distance_m;
  row.requests = report.traffic.requests;
  row.availability = cell.slo.availability();
  row.attack_availability = cell.slo.focus_availability();
  row.p50_ms = cell.slo.p50().millis();
  row.p99_ms = cell.slo.p99().millis();
  row.queue_wait_p99_ms = report.serving.queue_wait_p99_ms;
  row.service_p99_ms = report.serving.service_p99_ms;
  row.shed_requests = report.serving.shed_requests;
  row.timed_out_requests = report.serving.timed_out_requests;
  row.legs_shed = report.serving.legs_shed;
  row.legs_timed_out = report.serving.legs_timed_out;
  row.attack_shed = cell.slo.focus_outcome_count(OutcomeKind::kShed);
  row.attack_timed_out = cell.slo.focus_outcome_count(OutcomeKind::kTimedOut);
  row.client_retries = report.serving.client_retries;
  row.max_queue_depth = report.serving.max_queue_depth;
  for (const ShardedClusterEngine::DepthSample& sample :
       engine.depth_timeline()) {
    // Epochs are clamped to the attack boundaries, so the window's
    // samples are exactly those ending in (on, off].
    if (sample.at > cell.attack_on && sample.at <= cell.attack_off) {
      row.attack_max_queue_depth =
          std::max(row.attack_max_queue_depth, sample.depth);
    }
  }
  row.read_failovers = report.stats.read_failovers;
  row.drains = report.stats.drains;
  return row;
}

std::vector<ServingTrialRow> run_serving_experiment(
    const ServingExperimentConfig& config) {
  struct Cell {
    std::size_t queue_limit;
    serving::AdmissionPolicy admission;
    std::optional<double> distance_m;
  };
  std::vector<Cell> grid;
  grid.reserve(config.queue_limits.size() * config.admissions.size() *
               config.distances_m.size());
  for (const std::size_t queue_limit : config.queue_limits) {
    for (const serving::AdmissionPolicy admission : config.admissions) {
      for (const auto& distance : config.distances_m) {
        grid.push_back({queue_limit, admission, distance});
      }
    }
  }
  const auto zipf = std::make_shared<const ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  return sim::run_trials<ServingTrialRow>(
      grid.size(), config.jobs, [&](std::size_t i) {
        return run_serving_cell(config, grid[i].queue_limit,
                                grid[i].admission, grid[i].distance_m,
                                sim::trial_seed(config.seed, i), zipf);
      });
}

sim::Table build_cluster_serving_table(
    const ServingExperimentConfig& config,
    const std::vector<ServingTrialRow>& rows) {
  sim::Table table(
      "Serving behavior under a single-pod " +
      sim::format_fixed(config.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(config.spl_air_db, 0) + " dB attack (" +
      std::to_string(config.topology.pods) + " pods x " +
      std::to_string(config.topology.bays_per_pod) + " bays, " +
      placement_name(config.policy) + " R=" +
      std::to_string(config.replication) + ", closed loop)");
  table.set_columns({"Queue", "Admission", "Distance (cm)", "Avail %",
                     "Attack avail %", "p50 ms", "p99 ms", "QWait p99 ms",
                     "Svc p99 ms", "Shed", "Timed out", "Shed legs",
                     "T/o legs", "Retries", "Max depth", "Atk depth",
                     "Failovers", "Drains"});
  for (const ServingTrialRow& row : rows) {
    table.row()
        .cell(static_cast<std::int64_t>(row.queue_limit))
        .cell(serving::admission_name(row.admission));
    if (row.distance_m.has_value()) {
      table.cell(*row.distance_m * 100.0, 0);
    } else {
      table.dash();
    }
    table.cell(row.availability * 100.0, 3)
        .cell(row.attack_availability * 100.0, 3)
        .cell(row.p50_ms, 2)
        .cell(row.p99_ms, 2)
        .cell(row.queue_wait_p99_ms, 2)
        .cell(row.service_p99_ms, 2)
        .cell(static_cast<std::int64_t>(row.shed_requests))
        .cell(static_cast<std::int64_t>(row.timed_out_requests))
        .cell(static_cast<std::int64_t>(row.legs_shed))
        .cell(static_cast<std::int64_t>(row.legs_timed_out))
        .cell(static_cast<std::int64_t>(row.client_retries))
        .cell(static_cast<std::int64_t>(row.max_queue_depth))
        .cell(static_cast<std::int64_t>(row.attack_max_queue_depth))
        .cell(static_cast<std::int64_t>(row.read_failovers))
        .cell(static_cast<std::int64_t>(row.drains));
  }
  return table;
}

sim::Table build_cluster_availability_table(
    const ClusterExperimentConfig& config,
    const std::vector<ClusterTrialRow>& rows) {
  sim::Table table(
      "Cluster availability under a single-pod " +
      sim::format_fixed(config.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(config.spl_air_db, 0) + " dB attack (" +
      std::to_string(config.topology.pods) + " pods x " +
      std::to_string(config.topology.bays_per_pod) + " bays, R=" +
      std::to_string(config.replication) + ")");
  table.set_columns({"Policy", "Distance (cm)", "Avail %", "Attack avail %",
                     "p50 ms", "p99 ms", "p99.9 ms", "Failovers", "Drains",
                     "Failed"});
  for (const ClusterTrialRow& row : rows) {
    table.row().cell(placement_name(row.policy));
    if (row.distance_m.has_value()) {
      table.cell(*row.distance_m * 100.0, 0);
    } else {
      table.dash();
    }
    table.cell(row.availability * 100.0, 3)
        .cell(row.attack_availability * 100.0, 3)
        .cell(row.p50_ms, 2)
        .cell(row.p99_ms, 2)
        .cell(row.p999_ms, 2)
        .cell(static_cast<std::int64_t>(row.read_failovers))
        .cell(static_cast<std::int64_t>(row.drains))
        .cell(static_cast<std::int64_t>(row.failed));
  }
  return table;
}

}  // namespace deepnote::cluster
