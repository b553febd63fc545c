#include "cluster/hybrid_experiment.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cluster/cell.h"
#include "hdd/smart.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

HybridExperimentConfig hybrid_experiment_config(double scale) {
  HybridExperimentConfig config;
  // Same offered load as the availability experiment: below drive
  // saturation at baseline, so the grid measures attack response, not
  // queueing.
  config.traffic.arrival_rate_per_s = 400.0;
  config.warmup = sim::Duration::from_seconds(10.0 * scale);
  config.attack_window = sim::Duration::from_seconds(40.0 * scale);
  config.cooldown = sim::Duration::from_seconds(10.0 * scale);
  return config;
}

HybridTrialRow run_hybrid_cell(const HybridExperimentConfig& config,
                               NodeType node_type,
                               std::optional<double> distance_m,
                               double attack_multiplier,
                               std::uint64_t cell_seed,
                               std::shared_ptr<const ZipfAliasSampler> zipf,
                               unsigned engine_jobs) {
  CellSpec spec;
  spec.scenario = config.scenario;
  spec.topology = config.topology;
  spec.node_type = node_type;
  spec.hybrid = config.hybrid;
  spec.policy = config.policy;
  spec.replication = config.replication;
  spec.balancer = config.balancer;
  spec.traffic = config.traffic;
  spec.warmup = config.warmup;
  spec.attack = sim::Duration::from_seconds(config.attack_window.seconds() *
                                            attack_multiplier);
  spec.tail = config.cooldown;
  spec.seed = cell_seed;
  spec.zipf = std::move(zipf);
  spec.jobs = engine_jobs;
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

  HybridTrialRow row;
  row.node_type = node_type;
  row.distance_m = distance_m;
  row.attack_multiplier = attack_multiplier;
  row.requests = report.traffic.requests;
  row.failed = cell.slo.failed();
  row.availability = cell.slo.availability();
  row.attack_availability = cell.slo.focus_availability();
  row.p50_ms = cell.slo.p50().millis();
  row.p99_ms = cell.slo.p99().millis();
  row.read_failovers = report.stats.read_failovers;
  row.drains = report.stats.drains;
  for (NodeId id = 0; id < cell.cluster.num_nodes(); ++id) {
    const HybridDevice* tier = cell.cluster.hybrid(id);
    if (tier == nullptr) continue;
    const HybridStats& s = tier->stats();
    row.absorbed_errors += s.absorbed_errors;
    row.flash_only_ops += s.flash_only_ops;
    row.drained_pages += s.drained_pages;
    row.probes += s.probes;
    row.dirty_pages_left += tier->dirty_pages();
    const hdd::SmartAttribute wear = hdd::media_wearout_attribute(
        tier->flash().mean_erase_count(),
        tier->flash().config().rated_erase_cycles);
    row.media_wearout = std::min(row.media_wearout, wear.normalized);
  }
  return row;
}

std::vector<HybridTrialRow> run_hybrid_experiment(
    const HybridExperimentConfig& config) {
  struct Cell {
    NodeType node_type;
    std::optional<double> distance_m;
    double multiplier;
  };
  std::vector<Cell> grid;
  for (const NodeType node_type : config.node_types) {
    for (const auto& distance : config.distances_m) {
      for (const double multiplier : config.attack_multipliers) {
        // A baseline's length is not interesting; keep one row per type.
        if (!distance.has_value() && multiplier != 1.0) continue;
        grid.push_back({node_type, distance, multiplier});
      }
    }
  }
  const auto zipf = std::make_shared<const ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  return sim::run_trials<HybridTrialRow>(
      grid.size(), config.jobs, [&](std::size_t i) {
        return run_hybrid_cell(config, grid[i].node_type,
                               grid[i].distance_m, grid[i].multiplier,
                               sim::trial_seed(config.seed, i), zipf);
      });
}

sim::Table build_hybrid_availability_table(
    const HybridExperimentConfig& config,
    const std::vector<HybridTrialRow>& rows) {
  sim::Table table(
      "Hybrid tiering availability under a single-pod " +
      sim::format_fixed(config.frequency_hz, 0) + " Hz / " +
      sim::format_fixed(config.spl_air_db, 0) + " dB attack (" +
      std::to_string(config.topology.pods) + " pods x " +
      std::to_string(config.topology.bays_per_pod) + " bays, " +
      placement_name(config.policy) + " R=" +
      std::to_string(config.replication) + ")");
  table.set_columns({"Node", "Distance (cm)", "Attack x", "Avail %",
                     "Attack avail %", "p50 ms", "p99 ms", "Absorbed",
                     "Flash-only", "Drained", "Probes", "Dirty left",
                     "Wearout", "Failovers", "Drains", "Failed"});
  for (const HybridTrialRow& row : rows) {
    table.row().cell(node_type_name(row.node_type));
    if (row.distance_m.has_value()) {
      table.cell(*row.distance_m * 100.0, 0);
    } else {
      table.dash();
    }
    table.cell(row.attack_multiplier, 1)
        .cell(row.availability * 100.0, 3)
        .cell(row.attack_availability * 100.0, 3)
        .cell(row.p50_ms, 2)
        .cell(row.p99_ms, 2)
        .cell(static_cast<std::int64_t>(row.absorbed_errors))
        .cell(static_cast<std::int64_t>(row.flash_only_ops))
        .cell(static_cast<std::int64_t>(row.drained_pages))
        .cell(static_cast<std::int64_t>(row.probes))
        .cell(static_cast<std::int64_t>(row.dirty_pages_left))
        .cell(static_cast<std::int64_t>(row.media_wearout))
        .cell(static_cast<std::int64_t>(row.read_failovers))
        .cell(static_cast<std::int64_t>(row.drains))
        .cell(static_cast<std::int64_t>(row.failed));
  }
  return table;
}

}  // namespace deepnote::cluster
