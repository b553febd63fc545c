#include "cluster/grid.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "cluster/slo.h"
#include "core/attack.h"
#include "hdd/smart.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

CellSpec pod_attack_cell(double scale) {
  CellSpec cell;
  cell.engine.traffic.arrival_rate_per_s = 400.0;
  cell.warmup = sim::Duration::from_seconds(10.0 * scale);
  cell.attack = sim::Duration::from_seconds(40.0 * scale);
  cell.tail = sim::Duration::from_seconds(10.0 * scale);
  cell.attacked_pods = {0};
  return cell;
}

std::optional<double> attack_distance(const CellSpec& spec) {
  if (spec.attacked_pods.empty()) return std::nullopt;
  return spec.distance_m;
}

void set_attack_distance(CellSpec& spec, std::optional<double> distance_m) {
  if (distance_m.has_value()) {
    spec.distance_m = *distance_m;
  } else {
    spec.attacked_pods.clear();
  }
}

void distance_cell(sim::Table& table, const CellSpec& spec) {
  if (const std::optional<double> distance = attack_distance(spec)) {
    table.cell(*distance * 100.0, 0);
  } else {
    table.dash();
  }
}

namespace {

/// Post-attack accounting straight off the SLO's fixed windows. The
/// recovery clock stops at the END of the first window at/above the
/// threshold: a conservative, window-granular reading.
void measure_recovery(const SloTracker& slo, sim::SimTime attack_off,
                      sim::Duration tail, CellResult& result) {
  const std::int64_t window_ns = slo.config().window.ns();
  const std::vector<SloTracker::Window>& windows = slo.windows();
  std::uint64_t post_ok = 0;
  std::uint64_t post_fail = 0;
  result.recovery_s = tail.seconds();
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::int64_t begin_ns =
        slo.start().ns() + static_cast<std::int64_t>(i) * window_ns;
    if (begin_ns < attack_off.ns()) continue;
    const SloTracker::Window& w = windows[i];
    post_ok += w.ok;
    post_fail += w.fail;
    if (w.ok + w.fail == 0) continue;  // no arrivals: says nothing
    const double avail = w.availability();
    if (avail < kCollapsedAvailability) ++result.collapsed_windows;
    if (!result.recovered && avail >= kRecoveredAvailability) {
      result.recovered = true;
      result.recovery_s =
          static_cast<double>(begin_ns + window_ns - attack_off.ns()) * 1e-9;
    }
  }
  const std::uint64_t post_total = post_ok + post_fail;
  result.post_availability =
      post_total == 0
          ? 1.0
          : static_cast<double>(post_ok) / static_cast<double>(post_total);
}

void measure_flash(const Cluster& cluster, CellResult& result) {
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    const HybridDevice* tier = cluster.hybrid(id);
    if (tier == nullptr) continue;
    const HybridStats& s = tier->stats();
    result.absorbed_errors += s.absorbed_errors;
    result.flash_only_ops += s.flash_only_ops;
    result.drained_pages += s.drained_pages;
    result.probes += s.probes;
    result.dirty_pages_left += tier->dirty_pages();
    result.relocated_pages += tier->ftl().stats().relocated_pages;
    result.max_open_blocks = std::max<std::uint64_t>(
        result.max_open_blocks, tier->ftl().open_blocks());
    const hdd::SmartAttribute wear = hdd::media_wearout_attribute(
        tier->flash().mean_erase_count(),
        tier->flash().config().rated_erase_cycles);
    result.media_wearout = std::min(result.media_wearout, wear.normalized);
  }
}

}  // namespace

CellResult run_cell(const CellSpec& spec) {
  ClusterConfig cluster_config;
  cluster_config.scenario = spec.scenario;
  cluster_config.topology = spec.topology;
  cluster_config.node_type = spec.node_type;
  cluster_config.seed = sim::trial_seed(spec.seed, 0);
  Cluster cluster(cluster_config);

  const sim::SimTime attack_on = sim::SimTime::zero() + spec.warmup;
  const sim::SimTime attack_off = attack_on + spec.attack;
  EngineConfig config = spec.engine;
  config.traffic.duration = spec.warmup + spec.attack + spec.tail;
  config.traffic.seed = sim::trial_seed(spec.seed, 1);
  config.detector = cluster.config().detector;

  // Each attacked pod goes on at attack_on and off at attack_off; the
  // engine orders the timeline.
  core::AttackConfig attack;
  attack.frequency_hz = spec.frequency_hz;
  attack.spl_air_db = spec.spl_air_db;
  attack.distance_m = spec.distance_m;
  attack.start = attack_on;
  Cluster* target = &cluster;
  std::vector<TimelineAction> actions;
  for (const std::size_t pod : spec.attacked_pods) {
    actions.push_back({attack_on, [target, pod, attack](sim::SimTime t) {
                         target->apply_attack(pod, t, attack);
                       }});
    actions.push_back({attack_off, [target, pod](sim::SimTime t) {
                         target->stop_attack(pod, t);
                       }});
  }

  SloTracker slo(sim::SimTime::zero());
  slo.set_focus(attack_on, attack_off);
  ShardedClusterEngine engine(cluster.topology(), cluster.device_pointers(),
                              config);
  const EngineReport report =
      engine.run(sim::SimTime::zero(), slo, std::move(actions));

  CellResult result;
  result.cell = spec;
  result.requests = report.traffic.requests;
  result.writes = report.traffic.writes;
  result.failed = slo.failed();
  result.availability = slo.availability();
  result.attack_availability = slo.focus_availability();
  result.p50_ms = slo.p50().millis();
  result.p99_ms = slo.p99().millis();
  result.p999_ms = slo.p999().millis();
  result.read_failovers = report.stats.read_failovers;
  result.drains = report.stats.drains;
  result.partitioned_rounds = report.partitioned_rounds;
  result.chunked_rounds = report.chunked_rounds;

  const ServingReport& serving = report.serving;
  result.queue_wait_p99_ms = serving.queue_wait_p99_ms;
  result.service_p99_ms = serving.service_p99_ms;
  result.shed_requests = serving.shed_requests;
  result.timed_out_requests = serving.timed_out_requests;
  result.legs_shed = serving.legs_shed;
  result.legs_timed_out = serving.legs_timed_out;
  result.legs_cancelled = serving.legs_cancelled;
  result.attack_shed = slo.focus_outcome_count(OutcomeKind::kShed);
  result.attack_timed_out = slo.focus_outcome_count(OutcomeKind::kTimedOut);
  result.client_retries = serving.client_retries;
  result.max_queue_depth = serving.max_queue_depth;
  for (const ShardedClusterEngine::DepthSample& sample :
       engine.depth_timeline()) {
    // Epochs are clamped to the attack boundaries, so the window's
    // samples are exactly those ending in (on, off].
    if (sample.at > attack_on && sample.at <= attack_off) {
      result.attack_max_queue_depth =
          std::max(result.attack_max_queue_depth, sample.depth);
    }
  }
  result.retry_budget_spent = serving.retry_budget_spent;
  result.retry_budget_denied = serving.retry_budget_denied;
  result.breaker_opens = serving.breaker_opens;
  result.breaker_short_circuits = serving.breaker_short_circuits;

  measure_recovery(slo, attack_off, spec.tail, result);
  measure_flash(cluster, result);
  return result;
}

std::vector<CellResult> run_grid(const std::vector<CellSpec>& cells,
                                 std::uint64_t seed, unsigned jobs) {
  if (cells.empty()) return {};
  // One alias table serves every cell: it depends only on (keyspace,
  // theta), which no grid varies. A cell that differs builds its own.
  const TrafficConfig& first = cells.front().engine.traffic;
  const auto zipf =
      std::make_shared<const ZipfAliasSampler>(first.keyspace, first.zipf_theta);
  return sim::run_trials<CellResult>(cells.size(), jobs, [&](std::size_t i) {
    CellSpec spec = cells[i];
    spec.seed = sim::trial_seed(seed, i);
    if (spec.engine.zipf == nullptr &&
        spec.engine.traffic.keyspace == first.keyspace &&
        spec.engine.traffic.zipf_theta == first.zipf_theta) {
      spec.engine.zipf = zipf;
    }
    return run_cell(spec);
  });
}

}  // namespace deepnote::cluster
