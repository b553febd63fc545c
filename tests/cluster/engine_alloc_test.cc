// Allocation accounting for the sharded cluster engine's hot loop.
//
// The tentpole contract: once the per-epoch arenas (request SoA, leg
// slots, per-node op queues) are warm, a steady-state engine run
// performs ZERO heap allocations — traffic generation, routing, wave
// execution, and combine all recycle flat buffers. This binary
// overrides the global allocator to count, so it must stay its own
// test executable (mirrors tests/sim/event_alloc_test.cc).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/engine.h"
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

// A warm engine re-running the identical request stream must not touch
// the heap: every epoch's requests, legs, probes, and per-node queues
// land in arenas sized by the first run. MemDisk nodes keep the device
// layer allocation-free too (the drive model's write ledger is exempt
// from the contract — serving benches run timing-only).
TEST(EngineAllocTest, WarmEngineRunIsAllocationFree) {
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
  ShardedClusterEngine engine(topo, devices, config);

  // Warm run: grows every arena to the stream's steady-state footprint
  // and faults in MemDisk chunks for every written object.
  SloTracker slo(sim::SimTime::zero());
  const EngineReport warm = engine.run(sim::SimTime::zero(), slo);
  ASSERT_GT(warm.traffic.requests, 500u);

  // Identical replay (same seed, same devices): zero allocations across
  // the full run — start_run's resets reuse capacity too.
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const EngineReport measured = engine.run(sim::SimTime::zero(), slo);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(measured.traffic.requests, warm.traffic.requests);
  EXPECT_EQ(after - before, 0u)
      << "steady-state engine loop allocated on the hot path";
}

}  // namespace
}  // namespace deepnote::cluster
