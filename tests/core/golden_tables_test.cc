// Golden-table regression suite for the paper's headline results.
//
// Each test runs the SAME pipeline as the corresponding bench binary
// (core/paper_tables.h) at a reduced scale and default seed, renders the
// table to CSV, and diffs it byte-for-byte against the checked-in golden
// under tests/golden/. There is NO tolerance: any drift in physics,
// storage modelling, trial seeding, or table formatting fails the diff.
//
// Intentional changes: regenerate the goldens with
//
//     DEEPNOTE_UPDATE_GOLDEN=1 ctest -R GoldenTables
//
// then review the CSV diff like any other code change (see README.md).
#include <gtest/gtest.h>

#include "core/paper_tables.h"
#include "golden_table.h"

namespace deepnote::core {
namespace {

// Scales chosen to keep the suite in test-budget territory, at the cost
// of part of the attack. At 0.1, Fig. 2's writes and Table 2 read the
// no-attack baseline at every point (the shortened window fits inside
// the drive's write-cache absorption), and Table 1's writes read
// 7.4 MB/s at 1 and 5 cm where the paper reads 0. Fig. 2's reads,
// Table 1's reads and Table 3's crashes do show it.
constexpr double kSweepScale = 0.1;
constexpr double kRangeScale = 0.1;
constexpr double kCrashScale = 0.5;  // limit 150 s; crashes hit ~81 s

TEST(GoldenTables, Fig2FrequencySweep) {
  const Figure2Series series = run_figure2(figure2_config(kSweepScale));
  diff_against_golden(format_figure2(series, /*write_side=*/true),
                      "fig2_frequency_sweep_write.csv");
  diff_against_golden(format_figure2(series, /*write_side=*/false),
                      "fig2_frequency_sweep_read.csv");
}

TEST(GoldenTables, Table1RangeFio) {
  diff_against_golden(build_table1(table1_config(kRangeScale)),
                      "table1_range_fio.csv");
}

TEST(GoldenTables, Table2RangeKvdb) {
  diff_against_golden(
      build_table2(table2_config(kRangeScale),
                   table2_bench_config(kRangeScale), table2_db_config()),
      "table2_range_kvdb.csv");
}

TEST(GoldenTables, Table3Crashes) {
  diff_against_golden(build_table3(table3_config(kCrashScale)),
                      "table3_crashes.csv");
}

}  // namespace
}  // namespace deepnote::core
