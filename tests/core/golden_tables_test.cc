// Golden-table regression suite for the paper's headline results and
// its ablations.
//
// Each test runs the SAME pipeline as `bench/reproduce <table>`
// (core/paper_tables.h, core/ablation_tables.h) with default seeds,
// renders the tables to CSV, and diffs them byte-for-byte against the
// checked-in golden under tests/golden/. There is NO tolerance: any drift
// in physics, storage modelling, trial seeding, or table formatting fails
// the diff. The paper tables run at a reduced scale; the ablations run
// at the driver's one scale, so CI's bench-smoke job also diffs their
// goldens against `reproduce <table> --csv`.
//
// Intentional changes: regenerate the goldens with
//
//     DEEPNOTE_UPDATE_GOLDEN=1 ctest -R GoldenTables
//
// then review the CSV diff like any other code change (see README.md).
#include <gtest/gtest.h>

#include "core/ablation_tables.h"
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

TEST(GoldenTables, AblationEnvironment) {
  diff_against_golden(environment_tables(kill_spl_at_wall_db()),
                      "ablation_environment.csv");
}

TEST(GoldenTables, AblationDefenses) {
  diff_against_golden(defense_tables(), "ablation_defenses.csv");
}

TEST(GoldenTables, AblationRack) {
  diff_against_golden(rack_tables(), "ablation_rack.csv");
}

TEST(GoldenTables, AblationModel) {
  diff_against_golden(model_tables(), "ablation_model.csv");
}

TEST(GoldenTables, AblationDetection) {
  diff_against_golden(detection_tables(), "ablation_detection.csv");
}

TEST(GoldenTables, AblationVessel) {
  diff_against_golden(vessel_tables(), "ablation_vessel.csv");
}

TEST(GoldenTables, AblationPulsed) {
  diff_against_golden(pulsed_tables(), "ablation_pulsed.csv");
}

}  // namespace
}  // namespace deepnote::core
