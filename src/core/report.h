// Paper-style table formatting for experiment results.
#pragma once

#include <vector>

#include "core/crash_experiment.h"
#include "core/range_test.h"
#include "core/sweep.h"
#include "sim/table.h"

namespace deepnote::core {

/// Table 1: FIO read/write throughput & latency vs distance.
sim::Table format_table1(const std::vector<FioRangeRow>& rows);

/// Table 2: KV store throughput & I/O rate vs distance.
sim::Table format_table2(const std::vector<KvRangeRow>& rows);

/// Table 3: crashes in real-world applications.
struct CrashRow {
  std::string application;
  std::string description;
  CrashResult result;
};
sim::Table format_table3(const std::vector<CrashRow>& rows);

/// Figure 2 series: frequency vs throughput for several scenarios.
sim::Table format_figure2(
    const std::vector<std::pair<std::string, std::vector<SweepPoint>>>&
        series,
    bool write_side);

std::string format_distance(const std::optional<double>& distance_m);

}  // namespace deepnote::core
