// The serving datacenter: pods of bays, one storage node per bay.
//
// A Cluster is a set of pods, one RackTestbed per pod — one enclosure,
// one acoustic blast radius — with one node per bay. A node is the
// bay's block device: the bay's HDD behind datacenter-tuned OS timers,
// optionally fronted by a flash tier (hybrid.h). The cluster owns the
// physics (pods, drives, attacks); routing, detectors and node health
// live in the engine that drives it (engine.h), which takes the
// devices in id order from device_pointers().
//
// Nodes run datacenter-tuned SCSI timeouts (datacenter_os_device()):
// a serving fleet fails commands in hundreds of milliseconds and lets
// the service layer fail over, instead of the desktop default of
// retrying a hung drive for minutes.
#pragma once

#include <deque>
#include <vector>

#include "cluster/hybrid.h"
#include "cluster/placement.h"
#include "core/detector.h"
#include "core/rack.h"
#include "storage/block_device.h"

namespace deepnote::cluster {

/// SCSI command timers tuned the way a serving fleet tunes them: fail
/// fast (150 ms timer, 2 attempts) and let replication absorb the error,
/// instead of the desktop default that hangs a request for ~75 s.
storage::OsDeviceConfig datacenter_os_device();

/// What sits in each bay: the bare HDD behind datacenter OS timers, or
/// that HDD fronted by an attack-aware flash tier (hybrid.h).
enum class NodeType : std::uint8_t {
  kHdd,
  kHybrid,
};

const char* node_type_name(NodeType type);

struct ClusterConfig {
  core::ScenarioId scenario = core::ScenarioId::kPlasticTower;
  ClusterTopology topology;  ///< pods x bays_per_pod
  storage::OsDeviceConfig os_device = datacenter_os_device();
  /// Per-node health monitor the engine runs over these nodes. Warms
  /// fast: a fleet baselines a node in dozens of ops, and the
  /// error-burst rule needs no warmup at all.
  core::DetectorConfig detector = fleet_detector();
  NodeType node_type = NodeType::kHdd;
  HybridConfig hybrid;  ///< flash tier, used when node_type == kHybrid
  std::uint64_t seed = 0xc1a5;

  static core::DetectorConfig fleet_detector();
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  const ClusterTopology& topology() const { return config_.topology; }
  std::size_t num_nodes() const { return devices_.size(); }
  core::RackTestbed& pod(std::size_t pod) { return pods_.at(pod); }
  /// The node's flash tier; nullptr on a pure-HDD cluster.
  const HybridDevice* hybrid(NodeId id) const {
    return config_.node_type == NodeType::kHybrid ? &hybrids_.at(id)
                                                  : nullptr;
  }

  /// Non-owning block devices in id order (what the engine drives).
  const std::vector<storage::BlockDevice*>& device_pointers() {
    return devices_;
  }

  /// Insonify / silence one pod (all its bays couple to the same field).
  void apply_attack(std::size_t pod, sim::SimTime now,
                    const core::AttackConfig& attack);
  void stop_attack(std::size_t pod, sim::SimTime now);

  /// Drives currently held parked by their shock sensors, cluster-wide.
  std::size_t parked_nodes() const;

 private:
  ClusterConfig config_;
  // Deques, not vectors: both types are immovable (pods own acoustic
  // state, tiers hold a reference to their HDD), and
  // deque::emplace_back never relocates existing elements, so the
  // device pointers below stay valid for the cluster's lifetime.
  std::deque<core::RackTestbed> pods_;
  /// One flash tier per node on hybrid clusters (id order; empty
  /// otherwise).
  std::deque<HybridDevice> hybrids_;
  /// Each node's serving device in id order: the bay's OS device, or
  /// the flash tier in front of it.
  std::vector<storage::BlockDevice*> devices_;
};

}  // namespace deepnote::cluster
