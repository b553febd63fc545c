// Wall-clock floor on the serving pipeline's host cost.
//
// Runs the 1000-node attacked availability cell (200 pods x 5 bays,
// cross-pod R=3, 20k objects, a 1M-key Zipf at 400 req/s for 3
// simulated seconds, pod 0 insonified at 650 Hz / 140 dB / 1 cm from
// 0.5 s to 2.5 s) once with every node behind the bounded-FIFO serving
// pipeline (queue limit 8, 64 closed-loop clients) and once with
// immediate dispatch. Then the 10,000-node scale-out (2000 pods, 640
// clients at 4000 req/s: the same per-node load). The ratio is
// immediate wall over serving wall, i.e. serving's throughput relative
// to immediate dispatch; it is below 1 by construction, since the
// pipeline does strictly more work per request. Floors: 0.5 at 1k,
// 0.4 at 10k. The tool exits 1 when a cell falls below its floor.
//
// Protocol per cell: the two modes take turns, one rep of serving, then
// one of immediate, so a spell of host noise hits both alike. Round 0 is a
// warm-up, and each mode's best wall over the remaining rounds counts: 20
// rounds at 1k, where a rep takes about a millisecond, so each best-of
// spans at least 20 ms of timed work, and 3 at 10k. Every rep builds a
// fresh cluster and engine outside the timer.
//
// No flags and no files: one line per cell on stdout. The ratio depends
// on the host, so this is not a ctest case; the simulated-time gates of
// the same fleet-scale cells are (`ctest -L contract`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/slo.h"
#include "cluster/traffic.h"
#include "core/attack.h"

using namespace deepnote;

namespace {

struct Cell {
  const char* name;
  std::size_t pods;  ///< x 5 bays
  double rate_per_s;
  std::size_t clients;
  int rounds;  ///< round 0 is the warm-up
  double floor;
};

/// Wall seconds of one rep of the cell in one dispatch mode.
double wall_of_rep(
    const Cell& cell, bool serving_on,
    const std::shared_ptr<const cluster::ZipfAliasSampler>& zipf) {
  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = sim::SimTime::from_seconds(0.5);
  attack.end = sim::SimTime::from_seconds(2.5);

  cluster::ClusterConfig cluster_config;
  cluster_config.topology = {.pods = cell.pods, .bays_per_pod = 5};
  cluster_config.seed = 0x1234;
  cluster::Cluster cl(cluster_config);

  cluster::EngineConfig config;
  config.balancer.policy = cluster::PlacementPolicy::kCrossPod;
  config.balancer.objects = 20000;
  config.traffic.arrival_rate_per_s = cell.rate_per_s;
  config.traffic.duration = sim::Duration::from_seconds(3.0);
  config.traffic.keyspace = 1000000;
  config.traffic.seed = 0xbeef;
  config.zipf = zipf;
  config.jobs = 0;  // $DEEPNOTE_JOBS
  if (serving_on) {
    config.serving.enabled = true;
    config.serving.server.queue_limit = 8;
    config.serving.clients = cell.clients;
  }
  cluster::ShardedClusterEngine engine(cl.topology(), cl.device_pointers(),
                                       config);
  cluster::SloTracker slo(sim::SimTime::zero());
  slo.set_focus(attack.start, attack.end);
  std::vector<cluster::TimelineAction> actions;
  actions.push_back({attack.start, [&cl, attack](sim::SimTime t) {
                       cl.apply_attack(0, t, attack);
                     }});
  actions.push_back(
      {attack.end, [&cl](sim::SimTime t) { cl.stop_attack(0, t); }});

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(sim::SimTime::zero(), slo, std::move(actions));
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const Cell cells[] = {
      {"1k", 200, 400.0, 64, 21, 0.5},
      {"10k", 2000, 4000.0, 640, 4, 0.4},
  };
  bool ok = true;
  for (const Cell& cell : cells) {
    const auto zipf = std::make_shared<const cluster::ZipfAliasSampler>(
        1000000, cluster::TrafficConfig{}.zipf_theta);
    double serving = std::numeric_limits<double>::infinity();
    double immediate = serving;
    for (int round = 0; round < cell.rounds; ++round) {
      const double s = wall_of_rep(cell, /*serving_on=*/true, zipf);
      const double i = wall_of_rep(cell, /*serving_on=*/false, zipf);
      if (round == 0) continue;  // warm-up
      serving = std::min(serving, s);
      immediate = std::min(immediate, i);
    }
    const double ratio = immediate / serving;
    const bool pass = ratio >= cell.floor;
    std::printf(
        "serving_overhead %s: serving %.3f ms, immediate %.3f ms, "
        "ratio %.2f (floor %.2f) %s\n",
        cell.name, serving * 1e3, immediate * 1e3, ratio, cell.floor,
        pass ? "ok" : "FAIL");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}
