// Distills benchmark output into the repo's BENCH json format.
//
// Inputs:
//   --micro <file>     google-benchmark JSON (--benchmark_format=json) with
//                      the micro suites. Per-op time is derived from
//                      items_per_second when a suite reports items, else
//                      cpu_time per iteration is used.
//   --baseline <file>  optional. Either a previous BENCH file (its
//                      baseline_* numbers are carried forward unchanged;
//                      an end-to-end entry new since that file, or one
//                      whose baseline there was a min_speedup comparison
//                      path, seeds its baseline from the previous current
//                      rate) or a raw google-benchmark JSON (distilled
//                      and used as the baseline, for the first
//                      generation).
//   --table2           run the reduced Table-2 kvdb range sweep end to end
//                      (serial, wall-clocked) and record trials/sec.
//   --cluster          run the reduced cluster-availability grid end to
//                      end (serial, wall-clocked) and record cells/sec.
//   --cluster1k        run the 1000-node cross-pod availability cell
//                      with one pod attacked, gated absolutely on
//                      sim-time availability: the replicated fleet must
//                      serve >= 99% of attack-window arrivals.
//   --serving1k        run the same 1000-node attacked cell with the
//                      serving front-end enabled AND with immediate
//                      dispatch; the immediate rate is the baseline and
//                      serving is gated at >= 0.5x of it (the pipeline
//                      may cost at most ~2x per request).
//   --serving10k       the 10,000-node scale-out of --serving1k (2000
//                      pods x 5 bays, 640 clients, 4000 req/s — same
//                      per-node load), gated at >= 0.4x of immediate.
//   --overload1k       run the 1000-node governed overload-recovery cell
//                      (two thirds of the pods pulsed for 5 s, closed-loop
//                      population sized to sustain a naive retry storm)
//                      and record the recovery-time metric, gated at
//                      <= 30 s via the entry's "gates" object.
//   --overload10k      the 10,000-node scale-out of --overload1k at 60%
//                      utilization (larger fleets sample their placement
//                      tail deeper and need the headroom), same gate.
//   --hybrid1k         run the 1000-node same-pod attacked availability
//                      cell on pure-HDD nodes AND on flash-fronted
//                      hybrid nodes, gated absolutely on sim-time
//                      availability: the attack must drop the pure-HDD
//                      fleet below 15% while the hybrid fleet stays at
//                      or above 99% through the same attack.
//   --out <file>       output path (default: BENCH_PR5.json).
//
// The emitted file is the input format of tools/bench_compare.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/experiment.h"
#include "cluster/hybrid_experiment.h"
#include "cluster/overload_experiment.h"
#include "core/attack.h"
#include "core/range_test.h"
#include "core/scenario.h"
#include "sim/trial_runner.h"
#include "storage/kvdb/db.h"
#include "tools/minijson.h"
#include "workload/db_bench.h"

namespace {

using deepnote::tools::JsonValue;
using deepnote::tools::json_escape;
using deepnote::tools::json_parse;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// name -> ns per op, from a google-benchmark JSON tree.
std::map<std::string, double> distill_micro(const JsonValue& root) {
  std::map<std::string, double> out;
  const JsonValue* benches = root.find("benchmarks");
  if (benches == nullptr || !benches->is_array()) {
    throw std::runtime_error("no 'benchmarks' array: not google-benchmark JSON");
  }
  for (const JsonValue& b : benches->array) {
    const JsonValue* name = b.find("name");
    if (name == nullptr || !name->is_string()) continue;
    // Skip aggregate rows (mean/median/stddev of repetitions).
    if (b.find("aggregate_name") != nullptr) continue;
    const JsonValue* items = b.find("items_per_second");
    const JsonValue* cpu = b.find("cpu_time");
    double ns_per_op = 0.0;
    if (items != nullptr && items->is_number() && items->number > 0) {
      ns_per_op = 1e9 / items->number;
    } else if (cpu != nullptr && cpu->is_number()) {
      ns_per_op = cpu->number;  // time_unit is ns in our suites
    } else {
      continue;
    }
    out[name->str] = ns_per_op;
  }
  return out;
}

struct EndToEnd {
  std::uint64_t trials = 0;
  double wall_s = 0.0;
  double trials_per_s = 0.0;
  std::uint64_t total_ops = 0;
  /// Measured in this run (e.g. immediate dispatch on the same
  /// workload). When set it overrides any baseline carried forward from
  /// a previous BENCH file.
  std::optional<double> measured_baseline_per_s;
  /// Emitted as "min_speedup": bench_compare fails the candidate when
  /// current/baseline drops below it.
  std::optional<double> min_speedup;
  /// Named scalar results from inside the run (sim-time measurements,
  /// not wall-clock rates), emitted under "metrics".
  std::vector<std::pair<std::string, double>> metrics;
  /// Absolute bounds on metrics, emitted under "gates"; bench_compare
  /// fails the candidate when a gated metric leaves [min, max].
  struct Gate {
    std::string metric;
    std::optional<double> min;
    std::optional<double> max;
  };
  std::vector<Gate> gates;
};

/// The reduced Table-2 sweep: readwhilewriting over the LSM store at three
/// attack distances. Serial so the wall-clock number is stable; one
/// warm-up pass plus best-of-2 timed passes keeps cold-start page faults
/// and scheduler noise out of the recorded rate.
EndToEnd run_table2() {
  using namespace deepnote;
  core::RangeTest range(core::ScenarioId::kPlasticTower);
  core::RangeTestConfig config;
  config.attack.frequency_hz = 650.0;
  config.attack.spl_air_db = 140.0;
  config.attack.distance_m = 0.01;
  config.distances_m = {std::nullopt, 0.01, 0.15};
  config.ramp = sim::Duration::from_seconds(0.5);
  config.duration = sim::Duration::from_seconds(2.0);
  config.jobs = 1;

  workload::DbBenchConfig bench;
  bench.preload_keys = 2000;
  bench.reader_actors = 2;
  bench.ramp = sim::Duration::from_seconds(0.5);
  bench.duration = sim::Duration::from_seconds(2.0);
  storage::kvdb::DbConfig db;

  (void)range.run_kvdb(config, bench, db);  // warm-up

  EndToEnd e;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = range.run_kvdb(config, bench, db);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < e.wall_s) {
      e.trials = rows.size();
      e.wall_s = wall;
      e.trials_per_s = wall > 0 ? static_cast<double>(e.trials) / wall : 0;
      e.total_ops = 0;
      for (const auto& row : rows) e.total_ops += row.report.ops;
    }
  }
  return e;
}

/// The reduced cluster grid: the full policy x distance availability
/// experiment at a short timeline. Serving a Zipf read/write mix through
/// the engine over 15 simulated drives per cell makes this the cluster
/// layer's steady-state throughput number. Same warm-up + best-of-2
/// protocol as the Table-2 sweep.
EndToEnd run_cluster() {
  using namespace deepnote;
  cluster::ClusterExperimentConfig config =
      cluster::cluster_experiment_config(/*scale=*/0.1);
  config.jobs = 1;

  (void)cluster::run_cluster_experiment(config);  // warm-up

  EndToEnd e;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto rows = cluster::run_cluster_experiment(config);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < e.wall_s) {
      e.trials = rows.size();
      e.wall_s = wall;
      e.trials_per_s = wall > 0 ? static_cast<double>(e.trials) / wall : 0;
      e.total_ops = 0;
      for (const auto& row : rows) e.total_ops += row.requests;
    }
  }
  return e;
}

/// The fleet-scale availability cell: 1000 nodes (200 pods x 5 bays),
/// 3-way cross-pod replication, 1M-key Zipf at 400 req/s for 3
/// simulated seconds, pod 0 insonified at 650 Hz / 140 dB / 1 cm from
/// t=0.5s to t=2.5s. Judged on SIM-TIME availability, deterministic
/// from the seeds at any DEEPNOTE_JOBS: cross-pod placement loses at
/// most one replica per object, so the gate requires >= 99% of
/// attack-window arrivals served. Fixture construction — testbeds,
/// placement, the shared alias table — happens outside the timer;
/// warm-up pass plus best-of-2, fresh cluster per pass so drive state
/// never leaks between passes. The wall-clock rate is still recorded so
/// throughput trends stay visible across BENCH files.
EndToEnd run_cluster_1k() {
  using namespace deepnote;
  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = sim::SimTime::from_seconds(0.5);
  attack.end = sim::SimTime::from_seconds(2.5);

  cluster::EngineConfig config;
  config.balancer.policy = cluster::PlacementPolicy::kCrossPod;
  config.balancer.objects = 20000;
  config.traffic.arrival_rate_per_s = 400.0;
  config.traffic.duration = sim::Duration::from_seconds(3.0);
  config.traffic.keyspace = 1000000;
  config.traffic.seed = 0xbeef;
  config.zipf = std::make_shared<const cluster::ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  config.jobs = 0;  // $DEEPNOTE_JOBS

  EndToEnd e;
  e.trials = 1;
  for (int rep = 0; rep < 3; ++rep) {  // rep 0 is the warm-up
    cluster::ClusterConfig cluster_config;
    cluster_config.topology = {.pods = 200, .bays_per_pod = 5};
    cluster_config.seed = 0x1234;
    cluster::Cluster cl(cluster_config);
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
    const cluster::EngineReport report =
        engine.run(sim::SimTime::zero(), slo, std::move(actions));
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 1 || (rep > 1 && wall < e.wall_s)) {
      e.wall_s = wall;
      e.total_ops = report.traffic.requests;
      e.metrics = {{"attack_availability", slo.focus_availability()}};
    }
  }
  e.trials_per_s = e.wall_s > 0 ? 1.0 / e.wall_s : 0.0;
  // Cross-pod replication rides out a single-pod attack.
  e.gates = {{"attack_availability", /*min=*/0.99, /*max=*/std::nullopt}};
  return e;
}

/// The serving-mode twin of the availability cell: same topology, same
/// attacked workload, but every node fronted by the bounded-FIFO
/// request pipeline with closed-loop clients. The immediate-dispatch
/// engine on the identical workload is measured alongside as the
/// baseline, so the recorded "speedup" is serving's relative throughput
/// (it is < 1 by construction — the pipeline does strictly more work
/// per request). min_speedup floors that overhead. `pods` scales the
/// fleet (x 5 bays); arrival rate and client population scale with it
/// so per-node load is constant across cell sizes.
EndToEnd run_cluster_serving_cell(std::size_t pods, double rate_per_s,
                                  std::size_t clients, int reps,
                                  double min_speedup) {
  using namespace deepnote;
  const cluster::ClusterTopology topo{.pods = pods, .bays_per_pod = 5};

  cluster::BalancerConfig balancer_config;
  balancer_config.policy = cluster::PlacementPolicy::kCrossPod;
  balancer_config.objects = 20000;

  cluster::TrafficConfig traffic;
  traffic.arrival_rate_per_s = rate_per_s;
  traffic.duration = sim::Duration::from_seconds(3.0);
  traffic.keyspace = 1000000;
  traffic.seed = 0xbeef;

  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = sim::SimTime::from_seconds(0.5);
  attack.end = sim::SimTime::from_seconds(2.5);

  const auto zipf = std::make_shared<const cluster::ZipfAliasSampler>(
      traffic.keyspace, traffic.zipf_theta);

  auto make_cluster = [&]() {
    cluster::ClusterConfig config;
    config.topology = topo;
    config.seed = 0x1234;
    return std::make_unique<cluster::Cluster>(config);
  };
  auto make_actions = [&](cluster::Cluster* c) {
    std::vector<cluster::TimelineAction> actions;
    actions.push_back({attack.start, [c, attack](sim::SimTime t) {
                         c->apply_attack(0, t, attack);
                       }});
    actions.push_back(
        {attack.end, [c](sim::SimTime t) { c->stop_attack(0, t); }});
    return actions;
  };
  auto run_engine = [&](bool serving_on, double& best_wall,
                        std::uint64_t& requests) {
    for (int rep = 0; rep < reps; ++rep) {  // rep 0 is the warm-up
      auto cl = make_cluster();
      cluster::EngineConfig config;
      config.balancer = balancer_config;
      config.traffic = traffic;
      config.zipf = zipf;
      config.jobs = 0;  // $DEEPNOTE_JOBS
      if (serving_on) {
        config.serving.enabled = true;
        config.serving.server.queue_limit = 8;
        config.serving.clients = clients;
      }
      cluster::ShardedClusterEngine engine(cl->topology(),
                                           cl->device_pointers(), config);
      cluster::SloTracker slo(sim::SimTime::zero());
      slo.set_focus(attack.start, attack.end);
      auto actions = make_actions(cl.get());
      const auto t0 = std::chrono::steady_clock::now();
      const cluster::EngineReport report =
          engine.run(sim::SimTime::zero(), slo, std::move(actions));
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = std::chrono::duration<double>(t1 - t0).count();
      if (rep == 1 || (rep > 1 && wall < best_wall)) {
        best_wall = wall;
        requests = report.traffic.requests;
      }
    }
  };

  double serving_wall = 0.0;
  std::uint64_t serving_requests = 0;
  run_engine(true, serving_wall, serving_requests);

  double immediate_wall = 0.0;
  std::uint64_t immediate_requests = 0;
  run_engine(false, immediate_wall, immediate_requests);

  EndToEnd e;
  e.trials = 1;
  e.wall_s = serving_wall;
  e.trials_per_s = serving_wall > 0 ? 1.0 / serving_wall : 0.0;
  e.total_ops = serving_requests;
  e.measured_baseline_per_s =
      immediate_wall > 0 ? std::optional<double>(1.0 / immediate_wall)
                         : std::nullopt;
  e.min_speedup = min_speedup;
  return e;
}

/// 1000 nodes, 64 closed-loop clients at 400 req/s. The serving data
/// plane must stay within 2x of immediate dispatch (>= 0.5x), a floor
/// set from the measured ~0.7x with headroom for this host's noise.
EndToEnd run_cluster_serving_1k() {
  return run_cluster_serving_cell(/*pods=*/200, /*rate_per_s=*/400.0,
                                  /*clients=*/64, /*reps=*/6,
                                  /*min_speedup=*/0.5);
}

/// The scale-out cell: 10,000 nodes (2000 pods x 5 bays), 640 clients
/// at 4000 req/s — per-node load identical to the 1k cell, so any
/// super-linear cost in fleet size (reset walks, stats aggregation,
/// depth sampling) shows up as a ratio drop relative to cluster_serving
/// _1k. Fewer reps: the cell is ~10x the work of the 1k one.
EndToEnd run_cluster_serving_10k() {
  return run_cluster_serving_cell(/*pods=*/2000, /*rate_per_s=*/4000.0,
                                  /*clients=*/640, /*reps=*/4,
                                  /*min_speedup=*/0.4);
}

/// The overload-recovery cell: the governed+breaker corner of the
/// metastable grid at fleet scale. `pods` x 5 bays; the closed-loop
/// client population and its arrival rate scale with the fleet so the
/// per-node pressure matches the 15-node grid the golden CSV pins. Two
/// thirds of the pods are pulsed for 5 s through the chaos schedule
/// (enough to break every cross-pod write quorum), and the cell is
/// judged on SIM-TIME metrics — recovery seconds, post-attack
/// availability — gated absolutely via the entry's "gates" object. A
/// slower machine cannot move them: the run is deterministic from the
/// experiment seed at any DEEPNOTE_JOBS. The wall-clock rate is still
/// recorded so throughput trends stay visible across BENCH files.
EndToEnd run_overload_recovery_cell(std::size_t pods, double scale,
                                    double load) {
  using namespace deepnote;
  cluster::OverloadExperimentConfig config =
      cluster::overload_experiment_config(scale);
  config.topology = {.pods = pods, .bays_per_pod = 5};
  // `load` scales the offered pressure relative to the golden grid's
  // ~70% fleet utilization (clients scale with arrival so the per-client
  // think time is unchanged). 1.0 reproduces the grid's margin.
  const double fleet =
      static_cast<double>(pods * 5) / 15.0;  // vs the golden 3 x 5 grid
  config.traffic.arrival_rate_per_s *= fleet * load;
  config.clients = static_cast<std::size_t>(
      static_cast<double>(config.clients) * fleet * load);
  // The 15-node grid keeps the default Zipf skew, where the head key is
  // ~7% of traffic — fine when total arrival is 1.8k/s, fatal when the
  // fleet-scaled arrival lands that same 7% on ONE object's replicas.
  // Fleet cells spread the keys near-uniformly so saturation stays a
  // fleet-wide property, not a hot-shard artifact.
  config.traffic.zipf_theta = 0.01;
  // Hold replicas-per-node at the 1k cell's ~60: with the default 20k
  // objects a 10k-node fleet would carry ~6 replicas per node, and the
  // Poisson tail (nodes drawing 9+) sits permanently past capacity —
  // a placement-variance artifact, not the overload under study.
  config.balancer.objects = static_cast<std::uint64_t>(pods * 5) * 20;
  config.attacked_pods.clear();
  for (std::size_t pod = 0; pod < pods * 2 / 3; ++pod) {
    config.attacked_pods.push_back(pod);
  }

  const auto zipf = std::make_shared<const cluster::ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  const sim::Duration attack = sim::Duration::from_seconds(5.0);

  const auto t0 = std::chrono::steady_clock::now();
  const cluster::OverloadTrialRow row = cluster::run_overload_cell(
      config, cluster::OverloadPolicy::kGoverned, /*breaker_on=*/true, attack,
      sim::trial_seed(config.seed, 0), zipf, /*engine_jobs=*/0);
  const auto t1 = std::chrono::steady_clock::now();

  EndToEnd e;
  e.trials = 1;
  e.wall_s = std::chrono::duration<double>(t1 - t0).count();
  e.trials_per_s = e.wall_s > 0 ? 1.0 / e.wall_s : 0.0;
  e.total_ops = row.requests;
  e.metrics = {
      {"recovered", row.recovered ? 1.0 : 0.0},
      {"recovery_s", row.recovery_s},
      {"attack_availability", row.attack_availability},
      {"post_availability", row.post_availability},
      {"retries", static_cast<double>(row.retries)},
      {"breaker_opens", static_cast<double>(row.breaker_opens)},
  };
  // The ISSUE's acceptance bar: governance brings the fleet back to a
  // >= 99% SLO window within 30 simulated seconds of attack-off.
  e.gates = {
      {"recovered", /*min=*/1.0, /*max=*/std::nullopt},
      {"recovery_s", /*min=*/std::nullopt, /*max=*/30.0},
  };
  return e;
}

/// 1000 nodes, ~273k closed-loop clients at 120k req/s offered — the
/// golden grid's ~70% utilization. The observation window is 60 s of
/// sim time (scale 0.1), double the recovery gate, so a near-miss reads
/// as a recovery_s breach rather than a confusing recovered=0.
EndToEnd run_overload_recovery_1k() {
  return run_overload_recovery_cell(/*pods=*/200, /*scale=*/0.1,
                                    /*load=*/1.0);
}

/// The 10,000-node scale-out, at 60% of the grid's utilization and a
/// shorter window (30 s; the cell is ~10x the 1k one's work). The lower
/// load is a real fleet-sizing result, not a softball: at 10k nodes the
/// placement and queueing tails are sampled ~10x deeper, and at the
/// grid's 70% average utilization the worst-loaded nodes sit past their
/// capacity knee PERMANENTLY — steady-state availability plateaus near
/// 93% with no attack at all, held there by the breaker/detector churn
/// on the saturated tail. Bigger fleets need headroom for their own
/// variance; 60% keeps the whole tail inside capacity, so the cell
/// isolates attack recovery (the thing under test) from tail overload.
EndToEnd run_overload_recovery_10k() {
  return run_overload_recovery_cell(/*pods=*/2000, /*scale=*/0.05,
                                    /*load=*/0.6);
}

/// The hybrid-tiering cell at fleet scale: 1000 nodes (200 pods x 5
/// bays), same-pod placement — every replica of every object inside the
/// attacked pod, so placement cannot save the fleet and the node's own
/// storage stack is all that matters. The identical attacked workload
/// (650 Hz / 140 dB / 1 cm on pod 0 for 4 simulated seconds) runs once
/// on pure-HDD nodes and once on flash-fronted hybrids. Judged on
/// SIM-TIME availability, deterministic from the experiment seed at any
/// DEEPNOTE_JOBS: the gates require the pure-HDD fleet to collapse
/// below 15% inside the attack window while the hybrid fleet serves
/// >= 99% through the same window (the ISSUE's acceptance bar). The
/// pure-HDD wall rate is recorded as the baseline so the flash tier's
/// host-side simulation cost stays visible, but no min_speedup gates it
/// — the cell buys availability, not throughput.
EndToEnd run_hybrid_availability_1k() {
  using namespace deepnote;
  cluster::HybridExperimentConfig config =
      cluster::hybrid_experiment_config(/*scale=*/0.1);
  config.topology = {.pods = 200, .bays_per_pod = 5};

  const auto zipf = std::make_shared<const cluster::ZipfAliasSampler>(
      config.traffic.keyspace, config.traffic.zipf_theta);
  constexpr double kDistance = 0.01;
  constexpr double kMultiplier = 1.0;

  const auto t0 = std::chrono::steady_clock::now();
  const cluster::HybridTrialRow hdd = cluster::run_hybrid_cell(
      config, cluster::NodeType::kHdd, kDistance, kMultiplier,
      sim::trial_seed(config.seed, 0), zipf, /*engine_jobs=*/0);
  const auto t1 = std::chrono::steady_clock::now();
  const cluster::HybridTrialRow hybrid = cluster::run_hybrid_cell(
      config, cluster::NodeType::kHybrid, kDistance, kMultiplier,
      sim::trial_seed(config.seed, 1), zipf, /*engine_jobs=*/0);
  const auto t2 = std::chrono::steady_clock::now();

  const double hdd_wall = std::chrono::duration<double>(t1 - t0).count();
  const double hybrid_wall = std::chrono::duration<double>(t2 - t1).count();

  EndToEnd e;
  e.trials = 1;
  e.wall_s = hybrid_wall;
  e.trials_per_s = hybrid_wall > 0 ? 1.0 / hybrid_wall : 0.0;
  e.total_ops = hybrid.requests;
  e.measured_baseline_per_s =
      hdd_wall > 0 ? std::optional<double>(1.0 / hdd_wall) : std::nullopt;
  e.metrics = {
      {"hdd_attack_availability", hdd.attack_availability},
      {"hybrid_attack_availability", hybrid.attack_availability},
      {"hybrid_availability", hybrid.availability},
      {"absorbed_errors", static_cast<double>(hybrid.absorbed_errors)},
      {"flash_only_ops", static_cast<double>(hybrid.flash_only_ops)},
      {"drained_pages", static_cast<double>(hybrid.drained_pages)},
      {"dirty_pages_left", static_cast<double>(hybrid.dirty_pages_left)},
      {"media_wearout", static_cast<double>(hybrid.media_wearout)},
  };
  // The acceptance bar: the attack that drops the pure-HDD fleet below
  // 15% leaves the hybrid fleet at >= 99% availability.
  e.gates = {
      {"hdd_attack_availability", /*min=*/std::nullopt, /*max=*/0.15},
      {"hybrid_attack_availability", /*min=*/0.99, /*max=*/std::nullopt},
  };
  return e;
}

void emit_number_or_null(std::ostream& os, std::optional<double> v) {
  if (v.has_value()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", *v);
    os << buf;
  } else {
    os << "null";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string micro_path;
  std::string baseline_path;
  std::string out_path = "BENCH_PR6.json";
  bool with_table2 = false;
  bool with_cluster = false;
  bool with_cluster_1k = false;
  bool with_serving_1k = false;
  bool with_serving_10k = false;
  bool with_overload_1k = false;
  bool with_overload_10k = false;
  bool with_hybrid_1k = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_json: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--micro") {
      micro_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--table2") {
      with_table2 = true;
    } else if (arg == "--cluster") {
      with_cluster = true;
    } else if (arg == "--cluster1k") {
      with_cluster_1k = true;
    } else if (arg == "--serving1k") {
      with_serving_1k = true;
    } else if (arg == "--serving10k") {
      with_serving_10k = true;
    } else if (arg == "--overload1k") {
      with_overload_1k = true;
    } else if (arg == "--overload10k") {
      with_overload_10k = true;
    } else if (arg == "--hybrid1k") {
      with_hybrid_1k = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_json --micro <gbench.json> [--baseline "
                   "<file>] [--table2] [--cluster] [--cluster1k] "
                   "[--serving1k] [--serving10k] [--overload1k] "
                   "[--overload10k] [--hybrid1k] [--out <file>]\n");
      return 2;
    }
  }
  if (micro_path.empty()) {
    std::fprintf(stderr, "bench_json: --micro is required\n");
    return 2;
  }

  try {
    // The end-to-end sweeps run first, on a clean heap: parsing the JSON
    // inputs leaves thousands of live small allocations that measurably
    // slow the allocation-heavy simulation.
    std::vector<std::pair<std::string, EndToEnd>> end_to_end;
    if (with_table2) {
      std::fprintf(stderr, "bench_json: running reduced Table-2 sweep...\n");
      end_to_end.emplace_back("table2_range_kvdb", run_table2());
    }
    if (with_cluster) {
      std::fprintf(stderr, "bench_json: running reduced cluster grid...\n");
      end_to_end.emplace_back("cluster_availability", run_cluster());
    }
    if (with_cluster_1k) {
      std::fprintf(stderr,
                   "bench_json: running 1000-node availability cell...\n");
      end_to_end.emplace_back("cluster_availability_1k", run_cluster_1k());
    }
    if (with_serving_1k) {
      std::fprintf(stderr,
                   "bench_json: running 1000-node serving-vs-immediate "
                   "cell...\n");
      end_to_end.emplace_back("cluster_serving_1k", run_cluster_serving_1k());
    }
    if (with_serving_10k) {
      std::fprintf(stderr,
                   "bench_json: running 10,000-node serving-vs-immediate "
                   "cell...\n");
      end_to_end.emplace_back("cluster_serving_10k",
                              run_cluster_serving_10k());
    }
    if (with_overload_1k) {
      std::fprintf(stderr,
                   "bench_json: running 1000-node overload-recovery "
                   "cell...\n");
      end_to_end.emplace_back("overload_recovery_1k",
                              run_overload_recovery_1k());
    }
    if (with_overload_10k) {
      std::fprintf(stderr,
                   "bench_json: running 10,000-node overload-recovery "
                   "cell...\n");
      end_to_end.emplace_back("overload_recovery_10k",
                              run_overload_recovery_10k());
    }
    if (with_hybrid_1k) {
      std::fprintf(stderr,
                   "bench_json: running 1000-node hybrid-vs-HDD "
                   "availability cell...\n");
      end_to_end.emplace_back("hybrid_availability_1k",
                              run_hybrid_availability_1k());
    }

    const std::map<std::string, double> current =
        distill_micro(json_parse(read_file(micro_path)));

    std::map<std::string, double> baseline;
    std::map<std::string, double> baseline_e2e;  // entry -> trials/s
    if (!baseline_path.empty()) {
      const JsonValue base = json_parse(read_file(baseline_path));
      if (base.find("benchmarks") != nullptr) {
        baseline = distill_micro(base);  // raw google-benchmark JSON
      } else if (const JsonValue* suites = base.find("suites")) {
        // A previous BENCH file: keep its recorded baselines.
        for (const auto& [name, suite] : suites->object) {
          if (const JsonValue* b = suite.find("baseline_ns_per_op");
              b != nullptr && b->is_number()) {
            baseline[name] = b->number;
          } else if (const JsonValue* c = suite.find("current_ns_per_op");
                     c != nullptr && c->is_number()) {
            // A suite that was NEW in the previous file (null baseline):
            // its first recorded rate becomes the baseline going
            // forward, so it gates from its second generation on —
            // same rule the end-to-end entries already follow.
            baseline[name] = c->number;
          }
        }
        if (const JsonValue* prev = base.find("end_to_end")) {
          for (const auto& [name, entry] : prev->object) {
            // A min_speedup entry's baseline was another code path
            // measured alongside it in that run, not this entry's own
            // history, so it is not carried forward.
            const bool measured = entry.find("min_speedup") != nullptr;
            if (const JsonValue* b = entry.find("baseline_trials_per_s");
                !measured && b != nullptr && b->is_number()) {
              baseline_e2e[name] = b->number;
            } else if (const JsonValue* c = entry.find("current_trials_per_s");
                       c != nullptr && c->is_number()) {
              // No carried baseline for this entry: its current rate
              // becomes the baseline going forward.
              baseline_e2e[name] = c->number;
            }
          }
        }
      } else {
        throw std::runtime_error("unrecognized --baseline format");
      }
    }

    std::ofstream os(out_path, std::ios::binary);
    if (!os) {
      throw std::runtime_error("cannot write " + out_path);
    }
    os << "{\n  \"schema\": \"deepnote-bench-v1\",\n  \"suites\": {\n";
    bool first = true;
    for (const auto& [name, ns] : current) {
      if (!first) os << ",\n";
      first = false;
      os << "    \"" << json_escape(name) << "\": {\"baseline_ns_per_op\": ";
      auto it = baseline.find(name);
      emit_number_or_null(
          os, it != baseline.end() ? std::optional<double>(it->second)
                                   : std::nullopt);
      os << ", \"current_ns_per_op\": ";
      emit_number_or_null(os, ns);
      os << ", \"speedup\": ";
      emit_number_or_null(os, it != baseline.end() && ns > 0
                                  ? std::optional<double>(it->second / ns)
                                  : std::nullopt);
      os << "}";
    }
    os << "\n  }";
    if (!end_to_end.empty()) {
      os << ",\n  \"end_to_end\": {";
      bool first_e2e = true;
      for (const auto& [name, e] : end_to_end) {
        if (!first_e2e) os << ",";
        first_e2e = false;
        const auto it = baseline_e2e.find(name);
        std::optional<double> base_rate =
            it != baseline_e2e.end() ? std::optional<double>(it->second)
                                     : std::nullopt;
        // A baseline measured alongside the candidate (e.g. immediate
        // dispatch on the identical workload) beats a carried-forward
        // number: the two rates then share one machine and one build.
        if (e.measured_baseline_per_s.has_value()) {
          base_rate = e.measured_baseline_per_s;
        }
        os << "\n    \"" << json_escape(name) << "\": {"
           << "\"trials\": " << e.trials << ", \"wall_s\": ";
        emit_number_or_null(os, e.wall_s);
        os << ", \"current_trials_per_s\": ";
        emit_number_or_null(os, e.trials_per_s);
        os << ", \"baseline_trials_per_s\": ";
        emit_number_or_null(os, base_rate);
        os << ", \"speedup\": ";
        emit_number_or_null(
            os, base_rate.has_value() && *base_rate > 0
                    ? std::optional<double>(e.trials_per_s / *base_rate)
                    : std::nullopt);
        if (e.min_speedup.has_value()) {
          os << ", \"min_speedup\": ";
          emit_number_or_null(os, e.min_speedup);
        }
        os << ", \"total_ops\": " << e.total_ops;
        if (!e.metrics.empty()) {
          os << ", \"metrics\": {";
          bool first_metric = true;
          for (const auto& [metric, value] : e.metrics) {
            if (!first_metric) os << ", ";
            first_metric = false;
            os << "\"" << json_escape(metric) << "\": ";
            emit_number_or_null(os, value);
          }
          os << "}";
        }
        if (!e.gates.empty()) {
          os << ", \"gates\": {";
          bool first_gate = true;
          for (const auto& gate : e.gates) {
            if (!first_gate) os << ", ";
            first_gate = false;
            os << "\"" << json_escape(gate.metric) << "\": {";
            bool inner = false;
            if (gate.min.has_value()) {
              os << "\"min\": ";
              emit_number_or_null(os, gate.min);
              inner = true;
            }
            if (gate.max.has_value()) {
              if (inner) os << ", ";
              os << "\"max\": ";
              emit_number_or_null(os, gate.max);
            }
            os << "}";
          }
          os << "}";
        }
        os << "}";
      }
      os << "\n  }";
    }
    os << "\n}\n";
    std::fprintf(stderr, "bench_json: wrote %s (%zu suites, %zu end-to-end)\n",
                 out_path.c_str(), current.size(), end_to_end.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_json: %s\n", e.what());
    return 1;
  }
  return 0;
}
