#include "cluster/node.h"

#include <stdexcept>

#include "sim/trial_runner.h"

namespace deepnote::cluster {

const char* node_type_name(NodeType type) {
  switch (type) {
    case NodeType::kHdd: return "hdd";
    case NodeType::kHybrid: return "hybrid";
  }
  return "?";
}

storage::OsDeviceConfig datacenter_os_device() {
  storage::OsDeviceConfig config;
  config.command_timeout = sim::Duration::from_millis(150.0);
  config.attempts = 2;
  return config;
}

core::DetectorConfig ClusterConfig::fleet_detector() {
  core::DetectorConfig config;
  // A fleet baselines a node in dozens of ops, but the baseline EWMA
  // must have actually converged by the end of warmup or seek-time
  // variance trips the latency factor on healthy nodes: alpha 0.05 puts
  // the baseline within ~4% of the true mean after 64 ops.
  config.baseline_alpha = 0.05;
  config.warmup_ops = 64;
  // Drives take benign ~200 ms shock-sensor false trips; one such blip
  // lifts the recent EWMA to ~8-13x a healthy ~6 ms baseline. Draining
  // a node needs *persistent* elevation (several consecutive ops at
  // timeout latency — the parked-head signature), so the fleet factor
  // sits above the single-blip band. Hard failures still drain through
  // the error-burst rule immediately.
  config.latency_factor = 20.0;
  return config;
}

Cluster::Cluster(ClusterConfig config) : config_(config) {
  const ClusterTopology& topo = config_.topology;
  if (topo.pods == 0 || topo.bays_per_pod == 0) {
    throw std::invalid_argument("cluster: empty topology");
  }
  devices_.reserve(topo.nodes());
  for (std::size_t pod = 0; pod < topo.pods; ++pod) {
    core::RackConfig rack;
    rack.scenario = config_.scenario;
    rack.bays = topo.bays_per_pod;
    rack.seed = sim::trial_seed(config_.seed, pod);
    rack.os_device = config_.os_device;
    pods_.emplace_back(rack);
    for (std::size_t bay = 0; bay < topo.bays_per_pod; ++bay) {
      storage::BlockDevice* device = &pods_.back().device(bay);
      if (config_.node_type == NodeType::kHybrid) {
        // The flash tier fronts the bay's HDD; the node serves through it.
        hybrids_.emplace_back(*device, config_.hybrid);
        device = &hybrids_.back();
      }
      devices_.push_back(device);
    }
  }
}

void Cluster::apply_attack(std::size_t pod, sim::SimTime now,
                           const core::AttackConfig& attack) {
  pods_.at(pod).apply_attack(now, attack);
}

void Cluster::stop_attack(std::size_t pod, sim::SimTime now) {
  pods_.at(pod).stop_attack(now);
}

std::size_t Cluster::parked_nodes() const {
  std::size_t n = 0;
  for (const auto& pod : pods_) n += pod.parked_bays();
  return n;
}

}  // namespace deepnote::cluster
