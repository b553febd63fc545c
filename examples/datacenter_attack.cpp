// End-to-end attack on a running "data-center": a 3-pod serving cluster
// (5 drives per pod, 3-way replicated objects, health-checked routing)
// takes a 650 Hz / 140 dB blast on one pod while open-loop client
// traffic keeps arriving.
//
// The run is repeated under two placement policies. Same-pod packing
// puts every replica set inside the insonified enclosure — the attack
// takes all three replicas at once and availability collapses.
// Cross-pod placement loses at most one replica per object; the
// engine's per-node detectors drain the parked drives, reads fail over,
// and the service rides out the attack.
//
// The engine is pumped one epoch at a time and node health is read at
// every epoch barrier, so the timeline shows when the control loop
// drained and readmitted each node.
//
//   $ ./examples/datacenter_attack
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/slo.h"
#include "cluster/traffic.h"
#include "core/attack.h"

using namespace deepnote;

namespace {

constexpr double kWarmupS = 5.0;
constexpr double kAttackS = 20.0;
constexpr double kCooldownS = 5.0;

/// Serves one run under `policy`; returns availability inside the attack
/// window.
double serve_through_attack(cluster::PlacementPolicy policy) {
  std::printf("--- policy: %s ---\n", cluster::placement_name(policy));

  cluster::ClusterConfig cluster_config;  // 3 pods x 5 bays, Scenario 2
  cluster_config.seed = 0xdeeb;
  cluster::Cluster dc(cluster_config);

  cluster::EngineConfig config;
  config.balancer.policy = policy;
  config.traffic.arrival_rate_per_s = 400.0;
  config.traffic.duration =
      sim::Duration::from_seconds(kWarmupS + kAttackS + kCooldownS);
  config.detector = dc.config().detector;
  cluster::ShardedClusterEngine engine(dc.topology(), dc.device_pointers(),
                                       config);

  const sim::SimTime start = sim::SimTime::zero();
  const sim::SimTime attack_on = start + sim::Duration::from_seconds(kWarmupS);
  const sim::SimTime attack_off =
      attack_on + sim::Duration::from_seconds(kAttackS);
  const sim::SimTime end = start + config.traffic.duration;

  cluster::SloTracker slo(start);
  slo.set_focus(attack_on, attack_off);

  // The timeline prints after the run, merged and sorted: attack
  // markers fire inside the engine's steps, and node health is read at
  // every epoch barrier in between.
  struct Event {
    sim::SimTime at;
    std::string line;
  };
  std::vector<Event> events;

  core::AttackConfig attack;  // 650 Hz, 140 dB SPL, 1 cm
  std::vector<cluster::TimelineAction> actions;
  actions.push_back({attack_on, [&](sim::SimTime when) {
                       dc.apply_attack(0, when, attack);
                       char buf[128];
                       std::snprintf(buf, sizeof(buf),
                                     "*** attack ON: %.0f Hz, %.0f dB SPL, "
                                     "%.0f cm from pod 0",
                                     attack.frequency_hz, attack.spl_air_db,
                                     attack.distance_m * 100);
                       events.push_back({attack_on, buf});
                     }});
  actions.push_back({attack_off, [&](sim::SimTime when) {
                       char buf[128];
                       std::snprintf(buf, sizeof(buf),
                                     "*** attack OFF (%zu drives still parked)",
                                     dc.parked_nodes());
                       events.push_back({attack_off, buf});
                       dc.stop_attack(0, when);
                     }});

  // Per node: the barrier of its first drain, of its last readmission,
  // and how often it was drained. A readmitted node whose recent
  // latency is still high re-drains on its next op, so a recovering
  // node can flap for a while; the timeline shows where that ends.
  struct NodeTimeline {
    cluster::NodeHealth health = cluster::NodeHealth::kHealthy;
    std::optional<sim::SimTime> first_drain;
    std::optional<sim::SimTime> last_readmit;
    unsigned drains = 0;
  };
  std::vector<NodeTimeline> nodes(dc.num_nodes());
  engine.start_run(start, slo, std::move(actions));
  for (bool more = true; more;) {
    more = engine.step();
    for (cluster::NodeId id = 0; id < nodes.size(); ++id) {
      NodeTimeline& node = nodes[id];
      const cluster::NodeHealth now = engine.health(id);
      if (now == node.health) continue;
      if (now == cluster::NodeHealth::kDrained) {
        ++node.drains;
        if (!node.first_drain) node.first_drain = engine.now();
      } else if (now == cluster::NodeHealth::kHealthy) {
        node.last_readmit = engine.now();
      }
      node.health = now;
    }
  }
  const cluster::EngineReport report = engine.finish();

  for (cluster::NodeId id = 0; id < nodes.size(); ++id) {
    const NodeTimeline& node = nodes[id];
    if (!node.first_drain) continue;
    char where[64];
    std::snprintf(where, sizeof(where), "node %u (pod %zu, bay %zu)", id,
                  dc.topology().pod_of(id), dc.topology().bay_of(id));
    events.push_back({*node.first_drain,
                      std::string("detector drained ") + where});
    const char* times = node.drains == 1 ? "time" : "times";
    char buf[128];
    if (node.health == cluster::NodeHealth::kHealthy) {
      std::snprintf(buf, sizeof(buf), "probe readmitted %s (drained %u %s)",
                    where, node.drains, times);
      events.push_back({*node.last_readmit, buf});
    } else {
      std::snprintf(buf, sizeof(buf), "%s still %s at the end (drained %u %s)",
                    where, cluster::health_name(node.health), node.drains,
                    times);
      events.push_back({end, buf});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.at < b.at; });
  for (const Event& e : events) {
    std::printf("[%6.2f s] %s\n", e.at.seconds(), e.line.c_str());
  }

  const cluster::BalancerStats& stats = report.stats;
  std::printf("[%6.2f s] run complete: %llu requests, %llu failed, "
              "%llu failovers, %llu hedged, %llu drains, %llu readmits\n",
              end.seconds(),
              static_cast<unsigned long long>(report.traffic.requests),
              static_cast<unsigned long long>(stats.failed_reads +
                                              stats.failed_writes),
              static_cast<unsigned long long>(stats.read_failovers),
              static_cast<unsigned long long>(stats.hedged_reads),
              static_cast<unsigned long long>(stats.drains),
              static_cast<unsigned long long>(stats.readmits));
  std::printf("           availability %.3f%% overall, %.3f%% inside the "
              "attack window; p99 %.2f ms\n\n",
              slo.availability() * 100.0, slo.focus_availability() * 100.0,
              slo.p99().millis());
  return slo.focus_availability();
}

}  // namespace

int main() {
  std::printf("Deep Note: attacking one pod of a replicated serving "
              "cluster (Scenario 2)\n");
  std::printf("3 pods x 5 drives, R=3 objects, %.0f req/s open-loop, "
              "%.0f%% reads; attack hits pod 0 for %.0f s\n\n",
              400.0, 90.0, kAttackS);

  const double same_pod =
      serve_through_attack(cluster::PlacementPolicy::kSamePod);
  const double cross_pod =
      serve_through_attack(cluster::PlacementPolicy::kCrossPod);

  std::printf("verdict: same-pod served %.1f%% of requests during the "
              "attack; cross-pod served %.1f%%.\n",
              same_pod * 100.0, cross_pod * 100.0);
  std::printf("Placement that respects the acoustic blast radius turns a "
              "datacenter outage into a routine failover.\n");
  return 0;
}
