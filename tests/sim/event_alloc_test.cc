// Allocation accounting for the event kernel hot path.
//
// The PR3 contract: once the queue's slab and heap vectors are warm, a
// steady-state simulation loop whose event captures fit EventFn's inline
// buffer performs ZERO heap allocations. This binary overrides the
// global allocator to count, so it must stay its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.h"
#include "sim/simulator.h"

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

namespace deepnote::sim {
namespace {

TEST(EventAllocTest, WarmSteadyStateLoopIsAllocationFree) {
  Simulator sim;
  struct Ctx {
    Simulator* sim;
    std::uint64_t count = 0;
    std::uint64_t pad[3] = {};
  };
  Ctx ctx{&sim};
  // Self-rescheduling daemon: the exact shape of the commit/writeback
  // timers. The capture (one pointer) fits inline.
  struct Tick {
    Ctx* ctx;
    void operator()() const {
      ++ctx->count;
      ctx->sim->after(Duration::from_micros(10), Tick{ctx});
    }
  };
  sim.after(Duration::from_micros(10), Tick{&ctx});
  // Warm-up: grows the slab, heap vector, and free list to steady state.
  sim.run_until(SimTime::from_seconds(0.01));
  const std::uint64_t warm_count = ctx.count;
  ASSERT_GT(warm_count, 100u);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  sim.run_until(SimTime::from_seconds(0.02));
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(ctx.count, warm_count + 100);
  EXPECT_EQ(after - before, 0u)
      << "steady-state event loop allocated on the hot path";
}

TEST(EventAllocTest, WarmScheduleCancelLoopIsAllocationFree) {
  EventQueue q;
  // Warm-up with the same pending depth the measured loop uses.
  std::int64_t t = 0;
  for (int i = 0; i < 64; ++i) q.schedule(SimTime(++t), [] {});
  std::uint64_t sink = 0;
  for (int i = 0; i < 1000; ++i) {
    auto f = q.pop();
    f.fn();
    const EventId id = q.schedule(SimTime(++t), [&sink] { ++sink; });
    if (i % 2 == 0) {
      q.cancel(id);
      q.schedule(SimTime(++t), [&sink] { ++sink; });
    }
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    auto f = q.pop();
    f.fn();
    const EventId id = q.schedule(SimTime(++t), [&sink] { ++sink; });
    if (i % 2 == 0) {
      q.cancel(id);
      q.schedule(SimTime(++t), [&sink] { ++sink; });
    }
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(sink, 0u);
}

TEST(EventAllocTest, OversizedCaptureAllocatesExactlyOncePerEvent) {
  EventQueue q;
  struct Big {
    std::uint64_t words[10] = {};
  } big;
  constexpr int kEvents = 100;
  // Warm up at the same pending depth so vector growth is excluded and
  // the measured allocations are purely the per-event heap spills.
  for (int i = 0; i < kEvents; ++i) q.schedule(SimTime(i), [big] { (void)big; });
  while (!q.empty()) q.pop();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kEvents; ++i) {
    q.schedule(SimTime(i), [big] { (void)big; });
  }
  while (!q.empty()) q.pop().fn();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(kEvents));
}

}  // namespace
}  // namespace deepnote::sim
