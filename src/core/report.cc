#include "core/report.h"

#include <cstdio>

namespace deepnote::core {

std::string format_distance(const std::optional<double>& distance_m) {
  if (!distance_m.has_value()) return "No Attack";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g cm", *distance_m * 100.0);
  return buf;
}

namespace {

/// Latency is reported only when the job was responsive; low-throughput
/// responses are reported as "-" (the paper's convention for a drive
/// that stops serving I/O).
std::optional<double> latency_cell(const workload::FioReport& report) {
  return report.latency_ms;
}

}  // namespace

sim::Table format_table1(const std::vector<FioRangeRow>& rows) {
  sim::Table t(
      "Table 1: FIO throughput/latency vs attack distance (650 Hz, "
      "Scenario 2)");
  t.set_columns({"Distance", "Read MB/s", "Write MB/s", "Read lat ms",
                 "Write lat ms"});
  for (const auto& row : rows) {
    t.row()
        .cell(format_distance(row.distance_m))
        .cell(row.read.throughput_mbps, 1)
        .cell(row.write.throughput_mbps, 1)
        .cell_or_dash(latency_cell(row.read), 1)
        .cell_or_dash(latency_cell(row.write), 1);
  }
  return t;
}

sim::Table format_table2(const std::vector<KvRangeRow>& rows) {
  sim::Table t(
      "Table 2: RocksDB-like store under readwhilewriting vs attack "
      "distance (650 Hz, Scenario 2)");
  t.set_columns({"Distance", "Throughput MB/s", "I/O rate x100k ops/s"});
  for (const auto& row : rows) {
    t.row()
        .cell(format_distance(row.distance_m))
        .cell(row.report.throughput_mbps, 1)
        .cell(row.report.ops_per_second / 1e5, 1);
  }
  return t;
}

sim::Table format_table3(const std::vector<CrashRow>& rows) {
  sim::Table t("Table 3: crashes in real-world applications (650 Hz, "
               "140 dB SPL, 1 cm, Scenario 2)");
  t.set_columns({"Application", "Description", "Time to crash", "Error"});
  for (const auto& row : rows) {
    t.row().cell(row.application).cell(row.description);
    if (row.result.crashed) {
      t.cell(sim::format_fixed(row.result.time_to_crash_s, 1) + " seconds");
      t.cell(row.result.error_output);
    } else {
      t.dash().cell("no crash observed");
    }
  }
  return t;
}

sim::Table format_figure2(
    const std::vector<std::pair<std::string, std::vector<SweepPoint>>>&
        series,
    bool write_side) {
  sim::Table t(write_side
                   ? "Figure 2a: sequential WRITE throughput vs frequency"
                   : "Figure 2b: sequential READ throughput vs frequency");
  std::vector<std::string> headers{"Frequency Hz"};
  for (const auto& [name, _] : series) headers.push_back(name + " MB/s");
  t.set_columns(headers);
  if (series.empty()) return t;
  const std::size_t n = series.front().second.size();
  for (std::size_t i = 0; i < n; ++i) {
    t.row().cell(sim::format_fixed(series.front().second[i].frequency_hz, 0));
    for (const auto& [_, points] : series) {
      const auto& report =
          write_side ? points[i].write : points[i].read;
      t.cell(report.throughput_mbps, 1);
    }
  }
  return t;
}

}  // namespace deepnote::core
