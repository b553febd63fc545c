// A MemDisk-backed cluster for exact-time engine tests.
//
// 3 pods x 1 bay: node id == pod, and under the default cross-pod R=3
// placement every replica set spans all three nodes with a
// key-dependent primary. Constant-latency devices make every completion
// time exact.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cluster/engine.h"
#include "storage/mem_disk.h"

namespace deepnote::cluster {

struct MemCluster {
  static constexpr std::uint64_t kSectors = 16384;

  ClusterTopology topo{.pods = 3, .bays_per_pod = 1};
  std::vector<std::unique_ptr<storage::MemDisk>> disks;

  explicit MemCluster(sim::Duration latency = sim::Duration::from_micros(20)) {
    for (std::size_t pod = 0; pod < topo.pods; ++pod) {
      disks.push_back(std::make_unique<storage::MemDisk>(kSectors, latency));
    }
  }

  std::vector<storage::BlockDevice*> devices() const {
    std::vector<storage::BlockDevice*> out;
    for (const auto& disk : disks) out.push_back(disk.get());
    return out;
  }
};

/// One second at 1000 req/s over 1000 objects (8 sectors each, so they
/// fit a MemCluster disk).
inline EngineConfig mem_engine_config() {
  EngineConfig config;
  config.balancer.objects = 1000;
  config.traffic.arrival_rate_per_s = 1000.0;
  config.traffic.duration = sim::Duration::from_seconds(1.0);
  config.traffic.keyspace = 1000;
  return config;
}

struct MemRun {
  EngineReport report;
  SloTracker slo{sim::SimTime::zero()};
};

/// One full engine run over `mem`'s disks.
inline MemRun run_on(const MemCluster& mem, const EngineConfig& config,
                     std::vector<TimelineAction> actions = {}) {
  ShardedClusterEngine engine(mem.topo, mem.devices(), config);
  MemRun run;
  run.report = engine.run(sim::SimTime::zero(), run.slo, std::move(actions));
  return run;
}

}  // namespace deepnote::cluster
