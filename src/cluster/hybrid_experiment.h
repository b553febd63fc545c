// The hybrid-tiering availability experiment: node type (pure HDD vs.
// flash-fronted hybrid) x attacker distance x attack duration, under the
// WORST placement — same-pod, every replica of every object inside the
// attacked enclosure.
//
// The availability grid (experiment.h) showed placement is one way out:
// spread replicas across pods and a pod-level attack costs one replica.
// This grid shows the orthogonal way out when placement cannot save you:
// a flash tier with no spinning medium to disturb. The headline the
// table pins down: the same attack that drops a same-pod pure-HDD cell
// below 15% availability leaves the hybrid cell above 99%, and longer
// attacks (the duration axis) do not change that — the flash tier holds
// for as long as the heads stay parked, then drains its dirty pages
// back to the HDDs after the field clears.
//
// Each cell is one independent trial on the grid scaffold (grid.h),
// seeded by sim::trial_seed and fanned across the trial pool —
// bit-identical at any DEEPNOTE_JOBS setting.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/grid.h"
#include "sim/table.h"

namespace deepnote::cluster {

struct HybridExperimentConfig {
  /// The cell every grid point starts from: the availability grid's cell
  /// under same-pod placement, on purpose. The placement experiment
  /// already covers spreading replicas; this grid isolates what the
  /// flash tier buys when every replica shares the blast radius. Its
  /// `attack` is the window the multipliers scale.
  CellSpec cell;
  /// Attacker distances swept; nullopt = no-attack baseline row (run at
  /// multiplier 1.0 only — baselines do not vary with attack length).
  std::vector<std::optional<double>> distances_m = {std::nullopt, 0.01,
                                                    0.05};
  /// Attack-window lengths as multiples of `cell.attack`.
  std::vector<double> attack_multipliers = {0.5, 1.0, 2.0};
  std::uint64_t seed = 0xf1a8;
};

/// The experiment at a time scale (1.0 = the full 10/40/10 s timeline);
/// rates, topology, and the grid are unchanged by `scale`.
HybridExperimentConfig hybrid_experiment_config(double scale = 1.0);

/// The grid's cells in (node type, distance, multiplier) order, pure
/// HDD first, with baseline (no-attack) cells only at multiplier 1.0.
std::vector<CellSpec> hybrid_availability_cells(
    const HybridExperimentConfig& config);

/// A cell's attack length as a multiple of the grid's attack window.
double attack_multiplier(const HybridExperimentConfig& config,
                         const CellSpec& cell);

/// Render the grid as the "hybrid tiering availability vs. node type,
/// distance and attack duration" table.
sim::Table build_hybrid_availability_table(
    const HybridExperimentConfig& config,
    const std::vector<CellResult>& results);

}  // namespace deepnote::cluster
