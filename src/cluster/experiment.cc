#include "cluster/experiment.h"

#include <string>

namespace deepnote::cluster {

ClusterExperimentConfig cluster_experiment_config(double scale) {
  ClusterExperimentConfig config;
  config.cell = pod_attack_cell(scale);
  return config;
}

std::vector<CellSpec> cluster_availability_cells(
    const ClusterExperimentConfig& config) {
  std::vector<CellSpec> cells;
  for (const PlacementPolicy policy : config.policies) {
    for (const auto& distance : config.distances_m) {
      CellSpec& cell = cells.emplace_back(config.cell);
      cell.engine.balancer.policy = policy;
      set_attack_distance(cell, distance);
    }
  }
  return cells;
}

ServingExperimentConfig serving_experiment_config(double scale) {
  ServingExperimentConfig config;
  // Same offered rate as the availability experiment; the closed-loop
  // population converts it into a think mean (clients / rate), so the
  // no-load arrival process matches and every deviation under attack is
  // backpressure signal.
  config.cell = pod_attack_cell(scale);
  config.cell.engine.serving.enabled = true;
  return config;
}

std::vector<CellSpec> cluster_serving_cells(
    const ServingExperimentConfig& config) {
  std::vector<CellSpec> cells;
  for (const std::size_t queue_limit : config.queue_limits) {
    for (const serving::AdmissionPolicy admission : config.admissions) {
      for (const auto& distance : config.distances_m) {
        CellSpec& cell = cells.emplace_back(config.cell);
        cell.engine.serving.server.queue_limit = queue_limit;
        cell.engine.serving.server.admission = admission;
        set_attack_distance(cell, distance);
      }
    }
  }
  return cells;
}

sim::Table build_cluster_serving_table(const ServingExperimentConfig& config,
                                       const std::vector<CellResult>& results) {
  const CellSpec& base = config.cell;
  sim::Table table(
      "Serving behavior under a single-pod " +
      sim::format_fixed(base.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(base.spl_air_db, 0) + " dB attack (" +
      std::to_string(base.topology.pods) + " pods x " +
      std::to_string(base.topology.bays_per_pod) + " bays, " +
      placement_name(base.engine.balancer.policy) + " R=" +
      std::to_string(base.engine.balancer.replication) + ", closed loop)");
  table.set_columns({"Queue", "Admission", "Distance (cm)", "Avail %",
                     "Attack avail %", "p50 ms", "p99 ms", "QWait p99 ms",
                     "Svc p99 ms", "Shed", "Timed out", "Shed legs",
                     "T/o legs", "Retries", "Max depth", "Atk depth",
                     "Failovers", "Drains"});
  for (const CellResult& r : results) {
    const serving::ServerConfig& server = r.cell.engine.serving.server;
    table.row()
        .cell(static_cast<std::int64_t>(server.queue_limit))
        .cell(serving::admission_name(server.admission));
    distance_cell(table, r.cell);
    table.cell(r.availability * 100.0, 3)
        .cell(r.attack_availability * 100.0, 3)
        .cell(r.p50_ms, 2)
        .cell(r.p99_ms, 2)
        .cell(r.queue_wait_p99_ms, 2)
        .cell(r.service_p99_ms, 2)
        .cell(static_cast<std::int64_t>(r.shed_requests))
        .cell(static_cast<std::int64_t>(r.timed_out_requests))
        .cell(static_cast<std::int64_t>(r.legs_shed))
        .cell(static_cast<std::int64_t>(r.legs_timed_out))
        .cell(static_cast<std::int64_t>(r.client_retries))
        .cell(static_cast<std::int64_t>(r.max_queue_depth))
        .cell(static_cast<std::int64_t>(r.attack_max_queue_depth))
        .cell(static_cast<std::int64_t>(r.read_failovers))
        .cell(static_cast<std::int64_t>(r.drains));
  }
  return table;
}

sim::Table build_cluster_availability_table(
    const ClusterExperimentConfig& config,
    const std::vector<CellResult>& results) {
  const CellSpec& base = config.cell;
  sim::Table table(
      "Cluster availability under a single-pod " +
      sim::format_fixed(base.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(base.spl_air_db, 0) + " dB attack (" +
      std::to_string(base.topology.pods) + " pods x " +
      std::to_string(base.topology.bays_per_pod) + " bays, R=" +
      std::to_string(base.engine.balancer.replication) + ")");
  table.set_columns({"Policy", "Distance (cm)", "Avail %", "Attack avail %",
                     "p50 ms", "p99 ms", "p99.9 ms", "Failovers", "Drains",
                     "Failed"});
  for (const CellResult& r : results) {
    table.row().cell(placement_name(r.cell.engine.balancer.policy));
    distance_cell(table, r.cell);
    table.cell(r.availability * 100.0, 3)
        .cell(r.attack_availability * 100.0, 3)
        .cell(r.p50_ms, 2)
        .cell(r.p99_ms, 2)
        .cell(r.p999_ms, 2)
        .cell(static_cast<std::int64_t>(r.read_failovers))
        .cell(static_cast<std::int64_t>(r.drains))
        .cell(static_cast<std::int64_t>(r.failed));
  }
  return table;
}

}  // namespace deepnote::cluster
