#include "cluster/hybrid_experiment.h"

#include <string>

namespace deepnote::cluster {

HybridExperimentConfig hybrid_experiment_config(double scale) {
  HybridExperimentConfig config;
  config.cell = pod_attack_cell(scale);
  config.cell.engine.balancer.policy = PlacementPolicy::kSamePod;
  return config;
}

std::vector<CellSpec> hybrid_availability_cells(
    const HybridExperimentConfig& config) {
  std::vector<CellSpec> cells;
  for (const NodeType node_type : {NodeType::kHdd, NodeType::kHybrid}) {
    for (const auto& distance : config.distances_m) {
      for (const double multiplier : config.attack_multipliers) {
        // A baseline's length is not interesting; keep one row per type.
        if (!distance.has_value() && multiplier != 1.0) continue;
        CellSpec& cell = cells.emplace_back(config.cell);
        cell.node_type = node_type;
        cell.attack = sim::Duration::from_seconds(
            config.cell.attack.seconds() * multiplier);
        set_attack_distance(cell, distance);
      }
    }
  }
  return cells;
}

double attack_multiplier(const HybridExperimentConfig& config,
                         const CellSpec& cell) {
  return cell.attack.seconds() / config.cell.attack.seconds();
}

sim::Table build_hybrid_availability_table(
    const HybridExperimentConfig& config,
    const std::vector<CellResult>& results) {
  const CellSpec& base = config.cell;
  sim::Table table(
      "Hybrid tiering availability under a single-pod " +
      sim::format_fixed(base.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(base.spl_air_db, 0) + " dB attack (" +
      std::to_string(base.topology.pods) + " pods x " +
      std::to_string(base.topology.bays_per_pod) + " bays, " +
      placement_name(base.engine.balancer.policy) + " R=" +
      std::to_string(base.engine.balancer.replication) + ")");
  table.set_columns({"Node", "Distance (cm)", "Attack x", "Avail %",
                     "Attack avail %", "p50 ms", "p99 ms", "Absorbed",
                     "Flash-only", "Drained", "Probes", "Dirty left",
                     "Wearout", "Failovers", "Drains", "Failed"});
  for (const CellResult& r : results) {
    table.row().cell(node_type_name(r.cell.node_type));
    distance_cell(table, r.cell);
    table.cell(attack_multiplier(config, r.cell), 1)
        .cell(r.availability * 100.0, 3)
        .cell(r.attack_availability * 100.0, 3)
        .cell(r.p50_ms, 2)
        .cell(r.p99_ms, 2)
        .cell(static_cast<std::int64_t>(r.absorbed_errors))
        .cell(static_cast<std::int64_t>(r.flash_only_ops))
        .cell(static_cast<std::int64_t>(r.drained_pages))
        .cell(static_cast<std::int64_t>(r.probes))
        .cell(static_cast<std::int64_t>(r.dirty_pages_left))
        .cell(static_cast<std::int64_t>(r.media_wearout))
        .cell(static_cast<std::int64_t>(r.read_failovers))
        .cell(static_cast<std::int64_t>(r.drains))
        .cell(static_cast<std::int64_t>(r.failed));
  }
  return table;
}

}  // namespace deepnote::cluster
