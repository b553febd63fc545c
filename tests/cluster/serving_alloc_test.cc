// Allocation accounting for the serving-mode engine loop.
//
// The serving pipeline adds per-node event queues, pooled request
// contexts, closed-loop client state, and the queue-wait / service-time
// histograms to the hot path. The contract extends the immediate-mode
// one (engine_alloc_test.cc): once a first run has warmed every arena —
// context pools, event slabs, the FIFO rings, histogram buckets, the
// depth timeline — a steady-state serving run performs ZERO heap
// allocations. This binary overrides the global allocator to count, so
// it must stay its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/engine.h"
#include "cluster/serving/node_server.h"
#include "storage/mem_disk.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Every replaced operator stays out of line: once GCC inlines one into
// its caller, it pairs the malloc() in operator new with a call of
// operator delete, or a call of operator new with the free() in
// operator delete, and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace deepnote::cluster {
namespace {

// A warm serving engine re-running the identical closed-loop stream
// must not touch the heap: arrivals, admission, queueing, device
// completions, failure classification, client settle, and the depth /
// histogram telemetry all recycle warmed state.
TEST(ServingAllocTest, WarmServingRunIsAllocationFree) {
  constexpr std::uint64_t kSectors = 16384;
  const ClusterTopology topo{.pods = 3, .bays_per_pod = 2};

  std::vector<std::unique_ptr<storage::MemDisk>> disks;
  std::vector<storage::BlockDevice*> devices;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    disks.push_back(std::make_unique<storage::MemDisk>(kSectors));
    devices.push_back(disks.back().get());
  }

  EngineConfig config;
  config.balancer.objects = 1000;
  config.traffic.arrival_rate_per_s = 2000.0;
  config.traffic.duration = sim::Duration::from_seconds(0.5);
  config.traffic.keyspace = 1000;
  config.jobs = 1;
  config.serving.enabled = true;
  config.serving.server.queue_limit = 8;
  config.serving.clients = 32;
  ShardedClusterEngine engine(topo, devices, config);

  // Warm run: grows the engine arenas plus the serving state — context
  // pools, event slabs, histograms — and faults in MemDisk chunks.
  SloTracker slo(sim::SimTime::zero());
  const EngineReport warm = engine.run(sim::SimTime::zero(), slo);
  ASSERT_GT(warm.traffic.requests, 500u);
  ASSERT_GT(warm.serving.legs_served, 0u);

  // Identical replay (same seed, same devices): zero allocations across
  // the full run — start_run's serving resets reuse capacity too.
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const EngineReport measured = engine.run(sim::SimTime::zero(), slo);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(measured.traffic.requests, warm.traffic.requests);
  EXPECT_EQ(after - before, 0u)
      << "steady-state serving loop allocated on the hot path";
}

// Same contract with the wave pool engaged: jobs = 4 shards the client
// population into per-shard arrival heaps and splits the per-wave
// active-node / depth-dirty lists per shard. All of that state must
// recycle exactly like the inline path's. (min_ops_to_shard = 0 forces
// every wave through the pool, so the sharded structures are actually
// exercised.)
TEST(ServingAllocTest, WarmShardedServingRunIsAllocationFree) {
  constexpr std::uint64_t kSectors = 16384;
  const ClusterTopology topo{.pods = 3, .bays_per_pod = 2};

  std::vector<std::unique_ptr<storage::MemDisk>> disks;
  std::vector<storage::BlockDevice*> devices;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    disks.push_back(std::make_unique<storage::MemDisk>(kSectors));
    devices.push_back(disks.back().get());
  }

  EngineConfig config;
  config.balancer.objects = 1000;
  config.traffic.arrival_rate_per_s = 2000.0;
  config.traffic.duration = sim::Duration::from_seconds(0.5);
  config.traffic.keyspace = 1000;
  config.jobs = 4;
  config.min_ops_to_shard = 0;
  config.serving.enabled = true;
  config.serving.server.queue_limit = 8;
  config.serving.clients = 32;
  ShardedClusterEngine engine(topo, devices, config);

  SloTracker slo(sim::SimTime::zero());
  const EngineReport warm = engine.run(sim::SimTime::zero(), slo);
  ASSERT_GT(warm.serving.legs_served, 0u);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const EngineReport measured = engine.run(sim::SimTime::zero(), slo);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(measured.traffic.requests, warm.traffic.requests);
  EXPECT_EQ(after - before, 0u)
      << "sharded steady-state serving loop allocated on the hot path";
}

// reserve() is the cold-start contract: a freshly built server whose
// queue depth and batch sizes stay inside the reserved capacity must
// not allocate even on its very FIRST drain — this is what lets the
// engine construct a 10k-server fleet right before a timed run. The
// workload queues deep enough to arm deadline timers (wheel slab) and
// shed at the limit, so the context pool, both rings and the wheel all
// get exercised, not just the idle fast path.
TEST(ServingAllocTest, ReservedNodeServerFirstRunIsAllocationFree) {
  storage::MemDisk disk(1024);
  serving::ServerConfig config;
  config.queue_limit = 4;
  serving::NodeServer server(disk, config);
  server.reserve(/*slots=*/8, /*ring=*/16);

  std::vector<std::byte> buf(storage::kBlockSectorSize);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int batch = 0; batch < 4; ++batch) {
    const std::int64_t base_us = 1000 * (batch + 1);
    for (int i = 0; i < 8; ++i) {  // 8 arrivals vs queue_limit 4: sheds too
      const auto at = sim::SimTime::from_micros(base_us + i);
      server.submit(at, storage::DiskOpKind::kRead,
                    static_cast<std::uint64_t>(i), 1, {}, buf,
                    /*deadline=*/sim::SimTime::from_micros(base_us + 40 + i),
                    /*tag=*/static_cast<std::uint64_t>(i));
    }
    server.drain();
    server.clear_completions();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  const auto& stats = server.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_GT(stats.shed + stats.timed_out, 0u) << "queue never filled";
  EXPECT_EQ(after - before, 0u)
      << "reserved server allocated on its first runs";
}

}  // namespace
}  // namespace deepnote::cluster
