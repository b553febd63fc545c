#include "cluster/resilience/chaos.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "cluster/engine.h"
#include "cluster/node.h"
#include "core/attack.h"
#include "sim/rng.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster::resilience {

const char* chaos_event_kind_name(ChaosEventKind kind) {
  switch (kind) {
    case ChaosEventKind::kNodeCrash: return "node-crash";
    case ChaosEventKind::kNodeRestart: return "node-restart";
    case ChaosEventKind::kDetectorForce: return "detector-force";
    case ChaosEventKind::kDetectorSuppress: return "detector-suppress";
    case ChaosEventKind::kDetectorClear: return "detector-clear";
    case ChaosEventKind::kSlowNode: return "slow-node";
    case ChaosEventKind::kSlowNodeEnd: return "slow-node-end";
    case ChaosEventKind::kPodAttackOn: return "pod-attack-on";
    case ChaosEventKind::kPodAttackOff: return "pod-attack-off";
  }
  return "?";
}

namespace {

/// Event start uniform in [start, end); the paired end event is clamped
/// to the window so every begin has its end inside the run.
sim::SimTime draw_start(sim::Rng& rng, const ChaosConfig& config) {
  const double span_s = (config.end - config.start).seconds();
  return config.start + sim::Duration::from_seconds(rng.uniform(0.0, span_s));
}

sim::SimTime clamp_end(sim::SimTime at, const ChaosConfig& config) {
  return at < config.end ? at : config.end;
}

sim::Duration draw_span(sim::Rng& rng, sim::Duration lo, sim::Duration hi) {
  const double lo_s = lo.seconds();
  const double hi_s = hi.seconds() > lo_s ? hi.seconds() : lo_s;
  return sim::Duration::from_seconds(rng.uniform(lo_s, hi_s));
}

}  // namespace

std::vector<ChaosEvent> make_chaos_schedule(const ChaosConfig& config,
                                            std::uint64_t base_seed,
                                            std::uint64_t index) {
  const bool generated = config.crashes > 0 || config.flaps > 0 ||
                         config.slow_nodes > 0 || config.pod_pulses > 0;
  if (generated) {
    if (config.nodes == 0) {
      throw std::invalid_argument("chaos: nodes must be > 0 for node faults");
    }
    if (!(config.start < config.end)) {
      throw std::invalid_argument("chaos: need start < end to place events");
    }
  }

  std::vector<ChaosEvent> events;
  events.reserve(config.scripted.size() +
                 2 * (config.crashes + config.flaps + config.slow_nodes +
                      config.pod_pulses));

  // One forked stream per fault class, forked in a fixed order, so the
  // schedule for class X is invariant under re-tuning class Y.
  sim::Rng master(sim::trial_seed(base_seed, index) ^ 0xc8a05cul);
  sim::Rng crash_rng = master.fork();
  sim::Rng flap_rng = master.fork();
  sim::Rng slow_rng = master.fork();
  sim::Rng pulse_rng = master.fork();

  for (std::uint32_t i = 0; i < config.crashes; ++i) {
    const auto node = static_cast<std::uint32_t>(
        crash_rng.uniform_int(0, static_cast<std::int64_t>(config.nodes) - 1));
    const sim::SimTime down = draw_start(crash_rng, config);
    const sim::SimTime up =
        clamp_end(down + draw_span(crash_rng, config.crash_min,
                                   config.crash_max), config);
    events.push_back({down, ChaosEventKind::kNodeCrash, node, 0.0});
    events.push_back({up, ChaosEventKind::kNodeRestart, node, 0.0});
  }

  for (std::uint32_t i = 0; i < config.flaps; ++i) {
    const auto node = static_cast<std::uint32_t>(
        flap_rng.uniform_int(0, static_cast<std::int64_t>(config.nodes) - 1));
    const bool force = flap_rng.bernoulli(0.5);
    const sim::SimTime on = draw_start(flap_rng, config);
    const sim::SimTime off =
        clamp_end(on + draw_span(flap_rng, config.flap_min, config.flap_max),
                  config);
    events.push_back({on,
                      force ? ChaosEventKind::kDetectorForce
                            : ChaosEventKind::kDetectorSuppress,
                      node, 0.0});
    events.push_back({off, ChaosEventKind::kDetectorClear, node, 0.0});
  }

  for (std::uint32_t i = 0; i < config.slow_nodes; ++i) {
    const auto node = static_cast<std::uint32_t>(
        slow_rng.uniform_int(0, static_cast<std::int64_t>(config.nodes) - 1));
    const double scale =
        slow_rng.uniform(config.slow_scale_min, config.slow_scale_max);
    const sim::SimTime on = draw_start(slow_rng, config);
    const sim::SimTime off =
        clamp_end(on + draw_span(slow_rng, config.slow_min, config.slow_max),
                  config);
    events.push_back({on, ChaosEventKind::kSlowNode, node, scale});
    events.push_back({off, ChaosEventKind::kSlowNodeEnd, node, 1.0});
  }

  if (config.pod_pulses > 0 && config.pods == 0) {
    throw std::invalid_argument("chaos: pods must be > 0 for pod pulses");
  }
  for (std::uint32_t i = 0; i < config.pod_pulses; ++i) {
    const auto pod = static_cast<std::uint32_t>(
        pulse_rng.uniform_int(0, static_cast<std::int64_t>(config.pods) - 1));
    const double distance = pulse_rng.uniform(config.pulse_distance_min,
                                              config.pulse_distance_max);
    const sim::SimTime on = draw_start(pulse_rng, config);
    const sim::SimTime off =
        clamp_end(on + draw_span(pulse_rng, config.pulse_min, config.pulse_max),
                  config);
    events.push_back({on, ChaosEventKind::kPodAttackOn, pod, distance});
    events.push_back({off, ChaosEventKind::kPodAttackOff, pod, 0.0});
  }

  events.insert(events.end(), config.scripted.begin(), config.scripted.end());

  // Total order so replay (and any-jobs execution) sees one canonical
  // schedule: time, then kind, then target. stable_sort keeps the
  // generation order for full ties (same class, same node, same time).
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return std::make_tuple(a.at.ns(),
                                            static_cast<int>(a.kind),
                                            a.target) <
                            std::make_tuple(b.at.ns(),
                                            static_cast<int>(b.kind),
                                            b.target);
                   });
  return events;
}

std::vector<TimelineAction> chaos_actions(const std::vector<ChaosEvent>& events,
                                          ShardedClusterEngine& engine,
                                          Cluster& cluster,
                                          const ChaosConfig& config) {
  std::vector<TimelineAction> actions;
  actions.reserve(events.size());
  ShardedClusterEngine* eng = &engine;
  Cluster* clu = &cluster;
  for (const ChaosEvent& event : events) {
    const std::uint32_t target = event.target;
    const double magnitude = event.magnitude;
    switch (event.kind) {
      case ChaosEventKind::kNodeCrash:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_node_down(target, true);
                           }});
        break;
      case ChaosEventKind::kNodeRestart:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_node_down(target, false);
                           }});
        break;
      case ChaosEventKind::kDetectorForce:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_set_flap(target,
                                                 ChaosFlapMode::kForceDown);
                           }});
        break;
      case ChaosEventKind::kDetectorSuppress:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_set_flap(target,
                                                 ChaosFlapMode::kSuppress);
                           }});
        break;
      case ChaosEventKind::kDetectorClear:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_set_flap(target, ChaosFlapMode::kNone);
                           }});
        break;
      case ChaosEventKind::kSlowNode:
        actions.push_back({event.at, [eng, target, magnitude](sim::SimTime) {
                             eng->chaos_set_service_scale(target, magnitude);
                           }});
        break;
      case ChaosEventKind::kSlowNodeEnd:
        actions.push_back({event.at, [eng, target](sim::SimTime) {
                             eng->chaos_set_service_scale(target, 1.0);
                           }});
        break;
      case ChaosEventKind::kPodAttackOn: {
        core::AttackConfig attack;
        attack.frequency_hz = config.pulse_frequency_hz;
        attack.spl_air_db = config.pulse_spl_air_db;
        attack.distance_m = magnitude;
        attack.start = event.at;
        actions.push_back({event.at, [clu, target, attack](sim::SimTime t) {
                             clu->apply_attack(target, t, attack);
                           }});
        break;
      }
      case ChaosEventKind::kPodAttackOff:
        actions.push_back({event.at, [clu, target](sim::SimTime t) {
                             clu->stop_attack(target, t);
                           }});
        break;
    }
  }
  return actions;
}

}  // namespace deepnote::cluster::resilience
