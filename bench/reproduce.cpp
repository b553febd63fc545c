// Regenerates one table of the evaluation (see EXPERIMENTS.md):
//
//   fig2 table1 table2 table3   the paper's Fig. 2 and Tables 1-3
//   environment defenses rack model detection vessel pulsed
//                               the Section 5 ablations and extensions
//   availability serving overload hybrid
//                               the four cluster grids
//
// usage: reproduce <table> [--scale F] [--csv|--md]
//
// Every table comes from a library builder (core/paper_tables.h,
// core/ablation_tables.h and the grid headers in src/cluster), so the
// golden-table tests run the identical pipeline. The tables print as
// aligned text, or as CSV or markdown after --csv or --md (the last one
// given wins); the paper reference, reading or headline follows them.
// --scale F (a finite number above 0, default 1.0) applies to the grids
// only and scales a grid's timeline the way its *_config(F) does; the
// paper tables and the ablations run at full scale. Anything else prints
// a usage line on stderr and exits 2 before any table runs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/experiment.h"
#include "cluster/hybrid_experiment.h"
#include "cluster/overload_experiment.h"
#include "core/ablation_tables.h"
#include "core/paper_tables.h"
#include "sim/task_pool.h"

using namespace deepnote;

namespace {

struct Output {
  std::string lead;  ///< prose that introduces the tables
  std::vector<sim::Table> tables;
};

struct Target {
  const char* name;
  Output (*run)(double scale);
  const char* text;   ///< printed after the tables
  bool grid = false;  ///< takes --scale
};

const Target kTargets[] = {
    {"fig2",
     [](double) {
       const core::Figure2Series series =
           core::run_figure2(core::figure2_config());
       return Output{{},
                     {core::format_figure2(series, /*write_side=*/true),
                      core::format_figure2(series, /*write_side=*/false)}};
     },
     "Paper reference (Fig. 2): write throughput collapses to ~0 between\n"
     "~300 Hz and 1.3-1.7 kHz depending on scenario; reads collapse over\n"
     "a narrower band (300-800 Hz in Scenario 3); no effect above ~2 kHz\n"
     "or below ~300 Hz; writes are hit harder than reads throughout.\n"},
    {"table1",
     [](double) {
       return Output{{}, {core::build_table1(core::table1_config())}};
     },
     "Paper reference (Table 1):\n"
     "  No Attack: R 18.0 / W 22.7 MB/s, lat 0.2/0.2 ms\n"
     "  1 cm: 0/0 (-/-)   5 cm: 0/0 (-/-)   10 cm: 12.6/0.3\n"
     "  15 cm: 17.6/2.9   20 cm: 17.6/21.1  25 cm: 18.0/22.0\n"},
    {"table2",
     [](double) {
       return Output{{},
                     {core::build_table2(core::table2_config(),
                                         core::table2_bench_config(),
                                         core::table2_db_config())}};
     },
     "Paper reference (Table 2): No Attack 8.7 MB/s & 1.1; 1-10 cm: 0 & 0; "
     "15 cm: 3.7 & 0.9; 20-25 cm: 8.6 & 1.1.\n"},
    {"table3",
     [](double) {
       return Output{{}, {core::build_table3(core::table3_config())}};
     },
     "Paper reference (Table 3): Ext4 80.0 s (JBD error -5), Ubuntu 81.0 s, "
     "RocksDB 81.3 s; average 80.8 s.\n"},
    {"environment",
     [](double) {
       const double kill_spl = core::kill_spl_at_wall_db();
       char lead[128];
       std::snprintf(lead, sizeof(lead),
                     "SPL at the wall that parks the drive (650 Hz, "
                     "Scenario 2): %.1f dB re 1 uPa\n\n",
                     kill_spl);
       return Output{lead, core::environment_tables(kill_spl)};
     },
     "Findings (cf. paper Section 5):\n"
     " * At 650 Hz the absorption differences between environments are\n"
     "   irrelevant at attack-scale ranges (<0.1 dB even over 1 km) — the\n"
     "   range budget is spreading-dominated, so raising the source level\n"
     "   is the attacker's lever, exactly as Section 4.2 argues.\n"
     " * Water conditions shift the sound speed by ~6% (timing, not\n"
     "   amplitude) and only shape the range budget at tens of km.\n"
     " * A sonar-class projector extends the kill radius from centimetres\n"
     "   to tens of metres, covering a whole data-center pod.\n"},
    {"defenses", [](double) { return Output{{}, core::defense_tables()}; },
     "Reading: defenses shrink the vulnerable band and pull the\n"
     "kill radius inward; none is free — the liner insulates the\n"
     "servers the water was supposed to cool (Section 5).\n"},
    {"rack", [](double) { return Output{{}, core::rack_tables()}; },
     "Reading: at point-blank range the whole tower parks; as the\n"
     "speaker backs off, bays recover wall-first-last — correlated (not\n"
     "independent!) failures. A same-rack RAID-1 mirror buys nothing:\n"
     "both members wedge together. Placing the mirror in a different\n"
     "enclosure restores availability — after the md layer has paid two\n"
     "75 s command timeouts to eject the wedged member (writes are paced\n"
     "by the slowest member until then).\n"},
    {"model", [](double) { return Output{{}, core::model_tables()}; },
     "Reading (cf. DESIGN.md #5):\n"
     " * the write-back cache is what makes the no-attack 4 KiB write\n"
     "   baseline fast — without it the drive pays a rotation per op;\n"
     " * the shock sensor turns heavy vibration into a hard park (the\n"
     "   paper's 'no response' rows); without it the drive limps on;\n"
     " * servo rejection sets the 300 Hz lower band edge — without it\n"
     "   the 150 Hz attack also kills writes;\n"
     " * the tighter write tolerance is the whole read/write asymmetry.\n"},
    {"detection", [](double) { return Output{{}, core::detection_tables()}; },
     "Reading: the latency monitor flags partial attacks within ~2 s;\n"
     "a hard kill surfaces as the first buffer-I/O error at 75 s (a\n"
     "kernel-log watcher would see the first timeout reset at 25 s).\n"
     "Off-band or out-of-range tones produce no alert and no SMART\n"
     "fingerprint — no false positives. Detection-and-response, the\n"
     "paper's Section 5.1 direction, looks cheap to deploy.\n"},
    {"vessel", [](double) { return Output{{}, core::vessel_tables()}; },
     "Reading: the thin-walled lab containers understate a real hull —\n"
     "a 140 dB pool speaker that kills the paper's testbed leaves a\n"
     "steel vessel's heads well inside tolerance. But the hull is not a\n"
     "proof of safety: at its own ring modes a sonar-class projector\n"
     "still reaches park amplitude, supporting the paper's call for\n"
     "testbeds that represent deployment-grade enclosures (Section 5).\n"},
    {"pulsed", [](double) { return Output{{}, core::pulsed_tables()}; },
     "Reading: duty cycle acts as a throughput dial — the attacker can\n"
     "hold the victim at any chosen fraction of its capacity. Unlike\n"
     "the crash attack this throttling produces no error logs at all;\n"
     "only latency monitoring catches it (see ablation_detection).\n"},
    {"availability",
     [](double scale) {
       const auto config = cluster::cluster_experiment_config(scale);
       const auto cells = cluster::cluster_availability_cells(config);
       return Output{{},
                     {cluster::build_cluster_availability_table(
                         config, cluster::run_grid(cells, config.seed, 0))}};
     },
     "Headline: cross-pod 3-way replication rides out the pod attack at "
     ">99% availability; same-pod placement collapses during the attack "
     "window.\n",
     /*grid=*/true},
    {"serving",
     [](double scale) {
       const auto config = cluster::serving_experiment_config(scale);
       const auto cells = cluster::cluster_serving_cells(config);
       return Output{{},
                     {cluster::build_cluster_serving_table(
                         config, cluster::run_grid(cells, config.seed, 0))}};
     },
     "Headline: availability holds through the attack (cross-pod "
     "failover), but the tail inflates and the decomposition pins it on "
     "queue wait, not device service — with shallow queues converting the "
     "backlog into shed legs and failovers.\n",
     /*grid=*/true},
    {"overload",
     [](double scale) {
       const auto config = cluster::overload_experiment_config(scale);
       const auto cells = cluster::overload_cells(config);
       return Output{{},
                     {cluster::build_overload_recovery_table(
                         config, cluster::run_grid(cells, config.seed, 0))}};
     },
     "Headline: with naive retries (fixed backoff, no jitter, no budget, "
     "wasted work) goodput stays collapsed long after the attack stops — a "
     "metastable failure sustained purely by retry load. Governed retries "
     "(capped exponential + full jitter, retry budget, expired-request "
     "dropping) recover within seconds of attack-off.\n",
     /*grid=*/true},
    {"hybrid",
     [](double scale) {
       const auto config = cluster::hybrid_experiment_config(scale);
       const auto cells = cluster::hybrid_availability_cells(config);
       return Output{{},
                     {cluster::build_hybrid_availability_table(
                         config, cluster::run_grid(cells, config.seed, 0))}};
     },
     "Headline: with every replica in the attacked pod, pure-HDD nodes "
     "lose most attack-window requests at 1 cm and about a third at 5 cm, "
     "while flash-fronted hybrid nodes keep serving above 99% at every "
     "distance and attack length.\n",
     /*grid=*/true},
};

int usage(const std::string& why) {
  std::cerr << "reproduce: " << why << "\n"
            << "usage: reproduce <table> [--scale F] [--csv|--md]\n"
            << "tables:";
  for (const Target& target : kTargets) std::cerr << " " << target.name;
  std::cerr << "\n--scale applies to the cluster grids (availability, "
               "serving, overload, hybrid) only\n";
  return 2;
}

enum class Format { kText, kCsv, kMarkdown };

void print(const sim::Table& table, Format format) {
  switch (format) {
    case Format::kText: std::cout << table.to_text(); break;
    case Format::kCsv: std::cout << table.to_csv(); break;
    case Format::kMarkdown: std::cout << table.to_markdown(); break;
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Target* target = nullptr;
  std::optional<double> scale;
  Format format = Format::kText;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") {
      format = Format::kCsv;
      continue;
    }
    if (arg == "--md" || arg == "--markdown") {
      format = Format::kMarkdown;
      continue;
    }
    if (arg == "--scale") {
      if (i + 1 == argc) return usage("--scale needs a value");
      const char* text = argv[++i];
      char* end = nullptr;
      scale = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(*scale) ||
          *scale <= 0.0) {
        return usage("--scale must be a finite number above 0");
      }
      continue;
    }
    if (target != nullptr) return usage("one table at a time");
    for (const Target& candidate : kTargets) {
      if (arg == candidate.name) target = &candidate;
    }
    if (target == nullptr) {
      return usage("unknown table or option '" + std::string(arg) + "'");
    }
  }
  if (target == nullptr) return usage("name a table");
  if (scale.has_value() && !target->grid) {
    return usage(std::string(target->name) + " runs at full scale only");
  }

  std::cerr << "[trial engine: " << sim::resolve_jobs(0)
            << " jobs; set DEEPNOTE_JOBS to override]\n";
  const Output out = target->run(scale.value_or(1.0));
  // CSV output starts with the data, so any lead follows the tables.
  if (format != Format::kCsv) std::cout << out.lead;
  for (const sim::Table& table : out.tables) print(table, format);
  if (format == Format::kCsv) std::cout << out.lead;
  std::cout << target->text;
  return 0;
}
