#include "cluster/cell.h"

#include "core/attack.h"
#include "sim/trial_runner.h"

namespace deepnote::cluster {

namespace {

ClusterConfig cluster_config(const CellSpec& spec) {
  ClusterConfig config;
  config.scenario = spec.scenario;
  config.topology = spec.topology;
  config.node_type = spec.node_type;
  config.hybrid = spec.hybrid;
  config.seed = sim::trial_seed(spec.seed, 0);
  return config;
}

}  // namespace

ExperimentCell::ExperimentCell(const CellSpec& spec)
    : cluster(cluster_config(spec)),
      attack_on(sim::SimTime::zero() + spec.warmup),
      attack_off(attack_on + spec.attack),
      slo(sim::SimTime::zero()) {
  engine.balancer = spec.balancer;
  engine.balancer.policy = spec.policy;
  engine.balancer.replication = spec.replication;
  engine.traffic = spec.traffic;
  engine.traffic.duration = spec.warmup + spec.attack + spec.tail;
  engine.traffic.seed = sim::trial_seed(spec.seed, 1);
  engine.detector = cluster.config().detector;
  engine.jobs = spec.jobs;
  engine.zipf = spec.zipf;
  slo.set_focus(attack_on, attack_off);
}

std::vector<TimelineAction> ExperimentCell::pod_attack(std::size_t pod,
                                                       double frequency_hz,
                                                       double spl_air_db,
                                                       double distance_m) {
  core::AttackConfig attack;
  attack.frequency_hz = frequency_hz;
  attack.spl_air_db = spl_air_db;
  attack.distance_m = distance_m;
  attack.start = attack_on;
  Cluster* target = &cluster;
  std::vector<TimelineAction> actions;
  actions.push_back({attack_on, [target, pod, attack](sim::SimTime t) {
                       target->apply_attack(pod, t, attack);
                     }});
  actions.push_back({attack_off, [target, pod](sim::SimTime t) {
                       target->stop_attack(pod, t);
                     }});
  return actions;
}

}  // namespace deepnote::cluster
