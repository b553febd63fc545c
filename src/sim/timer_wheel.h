// Hierarchical timer wheel over virtual time.
//
// The serving data plane's NodeServer arms a deadline per queued request,
// plus a cancel timer per hedged read, and cancels whichever of them the
// request's finish leaves unfired: thousands of timers per epoch. (The
// closed-loop clients, which never cancel, use the flatter IssueCalendar
// in cluster/traffic.h.) A comparison heap pays O(log n) per
// schedule/fire and — worse for the hot path — a cache miss per level of
// the sift; the wheel pays O(1) per schedule/cancel and amortized O(1)
// per fired timer: a timer is dropped into the bucket covering its
// deadline (6 levels x 64 slots, power-of-two tick), and advance() walks
// only occupied buckets using per-level occupancy bitmasks, cascading a
// coarse bucket into finer ones when the cursor enters its window.
//
// Semantics:
//  * Time is monotone. advance(t) expires every pending timer with
//    deadline <= t, in exact (deadline, schedule order). Calling
//    advance with t in the past is a no-op advance to `now` (overdue
//    timers still fire — see below).
//  * schedule() with deadline <= now parks the timer on an overdue list
//    fired by the next advance() call, stamped with its own (past)
//    deadline. This is what a bounded-FIFO server needs when a batch
//    boundary replays arrivals from before the wheel's frontier.
//  * cancel() is O(1) and only valid for a timer that has not fired.
//  * Buckets, the node slab and the expiry scratch are all recycled: a
//    warm wheel performs zero heap allocations (enforced by
//    tests/sim/timer_wheel_test).
//
// The horizon is tick * 64^6 (with the default 64 us tick, ~52 days of
// sim time); scheduling past it throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace deepnote::sim {

class TimerWheel {
 public:
  using TimerId = std::uint32_t;
  static constexpr TimerId kInvalidTimer = 0xffffffffu;

  struct Expired {
    SimTime deadline;
    std::uint64_t payload = 0;
  };

  /// `tick` is rounded up to a power-of-two number of nanoseconds (so
  /// bucket math is a shift); the default 64 us tick becomes 65.536 us.
  explicit TimerWheel(Duration tick = Duration::from_micros(64),
                      SimTime origin = SimTime::zero());

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;
  /// Movable so owners (per-node servers) can live in plain vectors.
  TimerWheel(TimerWheel&&) = default;

  /// Drop every pending timer and rewind the clock to `origin`. The
  /// node slab is retained so the next run stays allocation-free; an
  /// already-empty wheel resets in O(1).
  void reset(SimTime origin = SimTime::zero());

  /// Pre-grow the node slab to at least `slots` so the first `slots`
  /// concurrent timers never allocate (cold-start hygiene for fleets
  /// of per-node wheels whose first run is timed).
  void reserve(std::size_t slots);

  /// Arm a timer. `payload` comes back verbatim in the Expired record.
  TimerId schedule(SimTime deadline, std::uint64_t payload);

  /// Disarm a pending timer. Must not be called for a timer that has
  /// already fired or been cancelled.
  void cancel(TimerId id);

  /// Advance to `t` (clamped to now if earlier), appending one Expired
  /// per fired timer to `out` in (deadline, schedule order). `out` is
  /// not cleared.
  void advance(SimTime t, std::vector<Expired>& out);

  SimTime now() const { return SimTime{now_ns_}; }
  std::size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }
  /// Slab high-water mark, for allocation tests.
  std::size_t slab_slots() const { return nodes_.size(); }
  std::int64_t tick_nanos() const { return std::int64_t{1} << tick_shift_; }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 6;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // Bucket ids: level * kSlots + slot, then one overdue list; kFreeBucket
  // marks a slab node on the free list (debug guard for double-cancel).
  static constexpr std::uint32_t kOverdueBucket = kLevels * kSlots;
  static constexpr std::uint32_t kNumBuckets = kOverdueBucket + 1;
  static constexpr std::uint32_t kFreeBucket = kNumBuckets;

  struct Node {
    std::int64_t deadline_ns = 0;
    std::uint64_t seq = 0;
    std::uint64_t payload = 0;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t bucket = kFreeBucket;
  };

  std::int64_t tick_of(std::int64_t ns) const {
    return (ns - origin_ns_) >> tick_shift_;
  }
  std::uint32_t acquire_node();
  void release_node(std::uint32_t id);
  void link(std::uint32_t bucket, std::uint32_t id);
  void unlink(std::uint32_t id);
  /// Drop a node into the bucket for absolute tick `tick` (>= cur_tick_).
  void place(std::uint32_t id, std::int64_t tick);
  /// Move the cursor to `tick`, cascading the coarse bucket at each new
  /// per-level cursor into finer levels. No pending timer may live at a
  /// tick below `tick` except inside those cascaded buckets.
  void jump_to(std::int64_t tick);
  /// Earliest tick that may hold a pending timer (bucket start for
  /// levels >= 1, so a lower bound), or -1 when all buckets are empty.
  std::int64_t next_pending_tick() const;

  int tick_shift_ = 16;
  std::int64_t origin_ns_ = 0;
  std::int64_t now_ns_ = 0;
  std::int64_t cur_tick_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;

  std::uint32_t heads_[kNumBuckets];
  std::uint64_t occupancy_[kLevels];
  std::vector<Node> nodes_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint32_t> scratch_;  ///< expiring ids, pre-sort
};

}  // namespace deepnote::sim
