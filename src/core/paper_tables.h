// Shared builders for the paper's headline results (Figure 2, Tables
// 1-3). `bench/reproduce fig2|table1|table2|table3` and the golden-table
// regression suite (tests/core/golden_tables_test.cc) run the SAME code
// paths through these functions, so a tolerance-free CSV diff of the
// golden outputs covers the whole experiment pipeline: physics, HDD
// model, storage stack, workloads, and table formatting.
//
// `scale` in (0, 1] shrinks the measurement windows (and, for Figure 2,
// coarsens the frequency grid) so the regression suite can afford the
// full pipeline; scale 1.0 is exactly the paper-scale bench run. Every
// config keeps its fixed default seed — outputs are bit-identical for a
// given (scale, seed) at any thread count.
#pragma once

#include <utility>
#include <vector>

#include "core/crash_experiment.h"
#include "core/range_test.h"
#include "core/report.h"
#include "core/sweep.h"
#include "workload/db_bench.h"

namespace deepnote::core {

/// Figure 2 grid: 140 dB SPL at 1 cm, 100 Hz..8 kHz (denser below
/// 2 kHz, mirroring the paper's 50 Hz narrowing of Section 4.1).
SweepConfig figure2_config(double scale = 1.0);

using Figure2Series =
    std::vector<std::pair<std::string, std::vector<SweepPoint>>>;

/// Run the sweep for all three scenarios (plastic floor / plastic
/// tower / metal tower). Feed into format_figure2().
Figure2Series run_figure2(const SweepConfig& config);

/// Table 1: FIO vs distance at 650 Hz, 140 dB SPL, Scenario 2.
RangeTestConfig table1_config(double scale = 1.0);
sim::Table build_table1(const RangeTestConfig& config);

/// Table 2: readwhilewriting on the LSM store vs distance. The bench
/// config is CALIBRATED so the no-attack row reports the paper's
/// 8.7 MB/s and ~1.1e5 ops/s at scale 1.
RangeTestConfig table2_config(double scale = 1.0);
workload::DbBenchConfig table2_bench_config(double scale = 1.0);
storage::kvdb::DbConfig table2_db_config();
sim::Table build_table2(const RangeTestConfig& config,
                        const workload::DbBenchConfig& bench,
                        const storage::kvdb::DbConfig& db);

/// Table 3: time-to-crash of Ext4 / Ubuntu server / RocksDB under the
/// best-attack parameters. `scale` shortens only the give-up limit (the
/// crash times themselves are physics, not configuration).
CrashExperimentConfig table3_config(double scale = 1.0);
sim::Table build_table3(const CrashExperimentConfig& config);

}  // namespace deepnote::core
