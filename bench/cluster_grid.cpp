// Regenerates one of the four cluster grids (see EXPERIMENTS.md):
//
//   availability  placement policy x attacker distance, one pod attacked
//   serving       queue limit x admission policy, closed-loop serving
//   overload      retry policy x breakers x attack duration, two pods
//                 pulsed (the metastable-failure grid)
//   hybrid        node type x distance x attack length, same-pod
//
// Configs, cells and tables live in src/cluster (grid.h and the three
// experiment headers), so the golden-table tests run the identical
// pipeline. --scale F (a finite number above 0, default 1.0) scales each
// grid's timeline the way its *_config(F) does; --csv or --md change the
// output format (see core/report.h).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "cluster/experiment.h"
#include "cluster/hybrid_experiment.h"
#include "cluster/overload_experiment.h"
#include "core/report.h"
#include "sim/task_pool.h"

using namespace deepnote;

namespace {

struct Grid {
  const char* name;
  sim::Table (*run)(double scale);
  const char* headline;
};

const Grid kGrids[] = {
    {"availability",
     [](double scale) {
       const auto config = cluster::cluster_experiment_config(scale);
       const auto cells = cluster::cluster_availability_cells(config);
       return cluster::build_cluster_availability_table(
           config, cluster::run_grid(cells, config.seed, 0));
     },
     "cross-pod 3-way replication rides out the pod attack at >99% "
     "availability; same-pod placement collapses during the attack "
     "window."},
    {"serving",
     [](double scale) {
       const auto config = cluster::serving_experiment_config(scale);
       const auto cells = cluster::cluster_serving_cells(config);
       return cluster::build_cluster_serving_table(
           config, cluster::run_grid(cells, config.seed, 0));
     },
     "availability holds through the attack (cross-pod failover), but the "
     "tail inflates and the decomposition pins it on queue wait, not "
     "device service — with shallow queues converting the backlog into "
     "shed legs and failovers."},
    {"overload",
     [](double scale) {
       const auto config = cluster::overload_experiment_config(scale);
       const auto cells = cluster::overload_cells(config);
       return cluster::build_overload_recovery_table(
           config, cluster::run_grid(cells, config.seed, 0));
     },
     "with naive retries (fixed backoff, no jitter, no budget, wasted work) "
     "goodput stays collapsed long after the attack stops — a metastable "
     "failure sustained purely by retry load. Governed retries (capped "
     "exponential + full jitter, retry budget, expired-request dropping) "
     "recover within seconds of attack-off."},
    {"hybrid",
     [](double scale) {
       const auto config = cluster::hybrid_experiment_config(scale);
       const auto cells = cluster::hybrid_availability_cells(config);
       return cluster::build_hybrid_availability_table(
           config, cluster::run_grid(cells, config.seed, 0));
     },
     "with every replica in the attacked pod, pure-HDD nodes lose most "
     "attack-window requests at 1 cm and about a third at 5 cm, while "
     "flash-fronted hybrid nodes keep serving above 99% at every distance "
     "and attack length."},
};

int usage(const char* why) {
  std::cerr << "cluster_grid: " << why << "\n"
            << "usage: cluster_grid <availability|serving|overload|hybrid> "
               "[--scale F] [--csv|--md]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Grid* grid = nullptr;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv" || arg == "--md" || arg == "--markdown") continue;
    if (arg == "--scale") {
      if (i + 1 == argc) return usage("--scale needs a value");
      const char* text = argv[++i];
      char* end = nullptr;
      scale = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(scale) ||
          scale <= 0.0) {
        return usage("--scale must be a finite number above 0");
      }
      continue;
    }
    if (grid != nullptr) return usage("one grid at a time");
    for (const Grid& candidate : kGrids) {
      if (arg == candidate.name) grid = &candidate;
    }
    if (grid == nullptr) {
      return usage(("unknown grid or option '" + std::string(arg) + "'")
                       .c_str());
    }
  }
  if (grid == nullptr) return usage("name a grid");

  std::cerr << "[trial engine: " << sim::resolve_jobs(0)
            << " jobs; set DEEPNOTE_JOBS to override]\n";
  core::print_table(grid->run(scale), argc, argv);
  std::cout << "Headline: " << grid->headline << "\n";
  return 0;
}
