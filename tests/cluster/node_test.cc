// Cluster layout tests: the device list the engine drives.
//
// The engine holds raw device pointers for a whole run, so a Cluster's
// devices must never move: pods and flash tiers live in deques, whose
// emplace_back never relocates existing elements.
#include "cluster/node.h"

#include <gtest/gtest.h>

#include <vector>

namespace deepnote::cluster {
namespace {

TEST(Cluster, DevicePointersAreStableAndInIdOrder) {
  ClusterConfig config;
  config.topology = ClusterTopology{.pods = 4, .bays_per_pod = 6};
  Cluster cluster(config);
  ASSERT_EQ(cluster.num_nodes(), 24u);

  const std::vector<storage::BlockDevice*> devices = cluster.device_pointers();
  ASSERT_EQ(devices.size(), cluster.num_nodes());
  const ClusterTopology& topo = cluster.topology();
  for (NodeId id = 0; id < cluster.num_nodes(); ++id) {
    // Id order is pod-major; each node serves through its bay's device.
    EXPECT_EQ(devices[id],
              &cluster.pod(topo.pod_of(id)).device(topo.bay_of(id)))
        << "node " << id;
  }
  EXPECT_EQ(cluster.device_pointers(), devices);

  // On a hybrid cluster each node serves through its flash tier.
  config.topology = ClusterTopology{.pods = 1, .bays_per_pod = 2};
  config.node_type = NodeType::kHybrid;
  Cluster hybrid(config);
  for (NodeId id = 0; id < hybrid.num_nodes(); ++id) {
    EXPECT_EQ(hybrid.device_pointers()[id], hybrid.hybrid(id));
  }
}

}  // namespace
}  // namespace deepnote::cluster
