// Byte-exact golden-CSV comparison for the table regression tests.
//
// A test renders its table to CSV and diffs it against
// tests/golden/<name> with no tolerance. A golden of several tables holds
// their CSVs one blank line apart, as `bench/reproduce <table> --csv`
// prints them. Intentional changes:
// regenerate with DEEPNOTE_UPDATE_GOLDEN=1 (the run rewrites the file
// instead of comparing) and review the CSV diff like any other change.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/table.h"

namespace deepnote {

inline void diff_csv_against_golden(const std::string& rendered,
                                    const std::string& name) {
  const std::string path = std::string(DEEPNOTE_GOLDEN_DIR) + "/" + name;
  if (std::getenv("DEEPNOTE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    std::printf("[golden updated: %s]\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — generate it with DEEPNOTE_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered)
      << "table drifted from " << path
      << "\nIf intentional, regenerate with DEEPNOTE_UPDATE_GOLDEN=1 "
         "and review the CSV diff.";
}

inline void diff_against_golden(const sim::Table& table,
                                const std::string& name) {
  diff_csv_against_golden(table.to_csv(), name);
}

inline void diff_against_golden(const std::vector<sim::Table>& tables,
                                const std::string& name) {
  std::string rendered;
  for (const sim::Table& table : tables) {
    if (!rendered.empty()) rendered += "\n";
    rendered += table.to_csv();
  }
  diff_csv_against_golden(rendered, name);
}

}  // namespace deepnote
