// Per-node request pipeline: a bounded FIFO queue with admission
// control and per-request deadlines in front of one block device.
//
// The immediate-dispatch cluster paths hand every op to the device the
// moment it is routed, so a node under acoustic attack serves each
// command in isolation — queue growth, head-of-line blocking, and load
// shedding are invisible by construction. NodeServer models the part of
// a storage server that actually breaks first under interference:
//
//  * Requests arrive through submit(), which only stages them in a
//    submit ring; drain() replays the batch with a three-way merge over
//    (sorted arrivals) x (the single in-flight completion) x (deadline
//    timers), so admission decisions interleave correctly with
//    completions without a per-op event-queue round trip.
//  * The device is a single server: one command in flight, the rest wait
//    in an intrusive FIFO list. `busy_until_` persists across
//    submission batches, so backlog carries over epochs.
//  * Admission control sheds when depth (waiting + in service) would
//    exceed the limit: kRejectNew bounces the newcomer, kDropOldest
//    evicts the head of the queue in its favor.
//  * Each queued request arms a hierarchical timer-wheel deadline; when
//    it fires, the request leaves the queue at its deadline instant
//    (freeing the slot for admission) without touching the device — the
//    client has already given up, and spending drive time on it would
//    be pure goodput loss. Timeouts therefore surface in virtual-time
//    order like every other completion.
//
// Every admitted request terminates in exactly one of {served, failed,
// timed out, shed, cancelled} and is appended to a completion ring the caller
// consumes in bulk after drain() — no per-op indirect calls — with its
// arrival / service-start / completion times, so the decomposition of
// latency into queue wait and service time falls out of the record.
//
// Request contexts are split hot/cold: the 64-byte hot struct carries
// the times, routing fields and intrusive links (wait queue + free
// list), the cold array the buffer spans. A warm server performs zero
// heap allocations (enforced by cluster_serving_alloc_test) as long as
// batches are submitted in arrival order; an out-of-order batch is
// stable-sorted at drain, which may allocate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/slo.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"
#include "storage/block_device.h"

namespace deepnote::cluster::serving {

enum class AdmissionPolicy : std::uint8_t {
  kRejectNew,   ///< full queue bounces the arriving request
  kDropOldest,  ///< full queue evicts its head in favor of the arrival
};

const char* admission_name(AdmissionPolicy policy);

struct ServerConfig {
  /// Maximum depth (waiting + in service) before admission sheds.
  std::size_t queue_limit = 32;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;
  /// Expire queued requests at their deadline (the sane default). When
  /// false the server never arms deadline timers and happily burns
  /// device time serving requests whose client already gave up — the
  /// wasted-work ingredient of a metastable collapse, kept as an
  /// explicit knob for the overload study.
  bool drop_expired = true;
};

/// Terminal report for one request. For kServed/kFailed the device ran
/// the command ([service_start, complete] is device time); kTimedOut
/// expired in queue (complete = deadline, no device time); kShed was
/// refused at admission (complete = the shed decision time); kCancelled
/// left the queue at its cancel time (a hedge leg whose sibling won).
struct ServeResult {
  std::uint64_t tag = 0;  ///< caller's handle, passed through untouched
  OutcomeKind outcome = OutcomeKind::kFailed;
  sim::SimTime arrival = sim::SimTime::zero();
  sim::SimTime service_start = sim::SimTime::zero();
  sim::SimTime complete = sim::SimTime::zero();
};

struct NodeServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;     ///< device completed ok
  std::uint64_t failed = 0;     ///< device error
  std::uint64_t timed_out = 0;  ///< deadline expired in queue
  std::uint64_t shed = 0;       ///< refused by admission control
  std::uint64_t cancelled = 0;  ///< cancelled in queue (hedge sibling won)
  std::uint64_t max_depth = 0;  ///< run high-water queue depth
};

class NodeServer {
 public:
  /// Does not own the device. Queue state starts empty and idle.
  NodeServer(storage::BlockDevice& device, ServerConfig config);

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;
  /// Movable so a fleet can live in one contiguous vector.
  NodeServer(NodeServer&&) = default;

  const ServerConfig& config() const { return config_; }

  /// Forget all queue/backlog state and stats; pooled contexts, the
  /// timer-wheel slab and the rings are retained so the next run stays
  /// allocation-free.
  void reset();

  /// Pre-grow the context pool, timer slab and rings so a run whose
  /// queue depth stays within `slots` (and whose batches stay within
  /// `ring` staged arrivals/completions) never allocates — even the
  /// very first one. Construction-time hygiene for engines that build a
  /// fresh server fleet right before a timed run.
  void reserve(std::size_t slots, std::size_t ring);

  /// Stage one request arriving at `arrival`. Reads fill `out`; writes
  /// take `in`. The arrival is processed (admission included) when
  /// drain() reaches its virtual time; `tag` comes back in the result.
  /// A finite `cancel_at` pre-arms cancellation: if the request is still
  /// waiting in queue at that instant it leaves as kCancelled, freeing
  /// its slot — how a won hedge stops its losing leg from consuming
  /// capacity. Once service starts the request runs to completion.
  void submit(sim::SimTime arrival, storage::DiskOpKind kind,
              std::uint64_t lba, std::uint32_t sector_count,
              std::span<const std::byte> in, std::span<std::byte> out,
              sim::SimTime deadline, std::uint64_t tag,
              sim::SimTime cancel_at = sim::SimTime::infinity());

  /// Multiply device service spans (complete - start) by `scale`; the
  /// chaos injector's slow-node fault. 1.0 restores normal service.
  void set_service_scale(double scale) { service_scale_ = scale; }

  /// Run the staged batch until the pipeline is idle, appending one
  /// ServeResult per terminated request to the completion ring in
  /// virtual-time order. Returns the latest completion time so far. The
  /// queue empties but `busy_until_` persists: backlog delays the next
  /// batch.
  sim::SimTime drain();

  /// Results appended by drain() since the last clear, in completion
  /// order. Consume in bulk, then clear_completions().
  const std::vector<ServeResult>& completions() const { return completions_; }
  void clear_completions() { completions_.clear(); }

  std::size_t depth() const { return waiting_ + (in_service_ ? 1u : 0u); }
  sim::SimTime busy_until() const { return busy_until_; }
  const NodeServerStats& stats() const { return stats_; }
  /// Depth high-water since the last call (epoch-resolution telemetry).
  std::uint64_t take_epoch_max_depth();
  /// Context-pool high-water mark, for allocation tests.
  std::size_t ctx_slots() const { return hot_.size(); }

  /// Start loading the fields submit() and drain() read: the object up
  /// to the timer wheel, which a server with nothing queued never
  /// touches. A hint only: no state changes.
  void prefetch() const {
    const char* first = reinterpret_cast<const char*>(this);
    const char* last = reinterpret_cast<const char*>(&wheel_) - 1;
    for (const char* at = first; at < last; at += 64) __builtin_prefetch(at);
    __builtin_prefetch(last);
  }
  /// Start loading what those fields point at, each in an allocation of
  /// its own: the context at the free-list head and the staging and
  /// completion rings. It reads the fields, so call it once prefetch()
  /// has had time to land them. A hint only: no state changes.
  void prefetch_rings() const {
    if (free_head_ != kNil) {
      __builtin_prefetch(&hot_[free_head_]);
      __builtin_prefetch(&cold_[free_head_]);
    }
    __builtin_prefetch(arrivals_.data());
    __builtin_prefetch(completions_.data());
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Hot per-request state: everything the admission / dequeue /
  /// timeout paths touch, packed into one cache line.
  struct alignas(64) HotCtx {
    std::int64_t arrival_ns = 0;
    std::int64_t deadline_ns = 0;
    std::int64_t cancel_at_ns = 0;  ///< SimTime::infinity() = no cancel
    std::uint64_t tag = 0;
    std::uint64_t lba = 0;
    std::uint32_t qnext = kNil;  ///< wait-queue / free-list link
    std::uint32_t qprev = kNil;
    sim::TimerWheel::TimerId timer = sim::TimerWheel::kInvalidTimer;
    sim::TimerWheel::TimerId cancel_timer = sim::TimerWheel::kInvalidTimer;
    std::uint32_t sector_count = 0;
    storage::DiskOpKind kind = storage::DiskOpKind::kRead;
  };
  static_assert(sizeof(HotCtx) == 64, "hot request state must fit one line");

  /// Cold per-request state: buffer spans, only touched at service.
  struct ColdCtx {
    const std::byte* in = nullptr;
    std::byte* out = nullptr;
    std::size_t in_size = 0;
    std::size_t out_size = 0;
  };

  std::uint32_t acquire_ctx();
  void release_ctx(std::uint32_t idx);
  void push_wait(std::uint32_t idx);
  void unlink_wait(std::uint32_t idx);
  void disarm_timers(std::uint32_t idx);
  void fire_timeouts(std::int64_t t_ns);
  void on_arrival(std::uint32_t idx);
  void complete_inflight();
  void start_next(sim::SimTime now);
  void start_service(std::uint32_t idx, sim::SimTime start);
  void finish(std::uint32_t idx, OutcomeKind outcome, sim::SimTime start,
              sim::SimTime complete);
  void note_depth();

  // Hot-first layout: the fields the per-leg submit/drain path touches
  // sit in the object's first cache lines; the 1.6 KB timer wheel —
  // untouched unless requests actually queue — goes last, so an idle
  // server's working set is a couple of lines, not the whole object.
  storage::BlockDevice& device_;
  ServerConfig config_;

  std::uint32_t free_head_ = kNil;
  std::uint32_t wait_head_ = kNil;  ///< intrusive FIFO, head = oldest
  std::uint32_t wait_tail_ = kNil;
  std::uint32_t inflight_ = kNil;
  std::size_t waiting_ = 0;
  bool in_service_ = false;
  bool inflight_ok_ = false;
  bool arrivals_sorted_ = true;
  bool have_last_arrival_ = false;
  std::int64_t last_arrival_ns_ = 0;
  std::int64_t inflight_complete_ns_ = 0;
  sim::SimTime service_start_ = sim::SimTime::zero();  ///< of the op in flight
  sim::SimTime busy_until_ = sim::SimTime::zero();
  sim::SimTime frontier_ = sim::SimTime::zero();
  double service_scale_ = 1.0;
  std::uint64_t epoch_max_depth_ = 0;
  NodeServerStats stats_;

  std::vector<HotCtx> hot_;
  std::vector<ColdCtx> cold_;
  std::vector<std::uint32_t> arrivals_;  ///< staged submit ring (ctx ids)
  std::vector<ServeResult> completions_;          ///< completion ring
  std::vector<sim::TimerWheel::Expired> expired_;  ///< advance scratch

  sim::TimerWheel wheel_;
};

}  // namespace deepnote::cluster::serving
