// Builders for the ablations and extensions of the paper's Section 5
// discussion. Like core/paper_tables.h, each returns the tables that
// `bench/reproduce <name>` prints, so the golden-table regression suite
// (tests/core/golden_tables_test.cc) diffs the identical pipeline in
// process. Each runs at the one scale EXPERIMENTS.md quotes, with fixed
// seeds; none fans out across threads.
#pragma once

#include <vector>

#include "sim/table.h"

namespace deepnote::core {

/// SPL at the enclosure wall (dB re 1 uPa) that parks the victim drive at
/// 650 Hz in Scenario 2, solved once from the calibrated chain.
double kill_spl_at_wall_db();

/// Water conditions and attacker range (Section 5, "Water Conditions" and
/// "Effective Range"): medium properties per environment, the maximum
/// range at which each source still delivers `kill_spl_db`, and the
/// source level each target distance needs.
std::vector<sim::Table> environment_tables(double kill_spl_db);

/// In-air defenses (Section 5): write throughput per defense against
/// frequency at 1 cm and against distance at 650 Hz.
std::vector<sim::Table> defense_tables();

/// A full 5-bay tower: per-bay write throughput against distance, then a
/// same-rack RAID-1 mirror against a cross-enclosure one.
std::vector<sim::Table> rack_tables();

/// Drive-model ablation: the Table 1 measurement with one mechanism of
/// the drive model switched off at a time.
std::vector<sim::Table> model_tables();

/// Host-side detection (Section 5.1): the latency/error monitor's
/// reaction time and the SMART fingerprint each attack leaves.
std::vector<sim::Table> detection_tables();

/// A Natick-style steel pressure vessel against the paper's testbed:
/// off-track amplitude, write throughput, and the SPL that parks a drive.
std::vector<sim::Table> vessel_tables();

/// A duty-cycled 650 Hz tone at 10 cm: write throughput against duty
/// cycle and pulse period.
std::vector<sim::Table> pulsed_tables();

}  // namespace deepnote::core
