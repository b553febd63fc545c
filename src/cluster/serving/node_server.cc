#include "cluster/serving/node_server.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace deepnote::cluster::serving {

namespace {
constexpr std::int64_t kNoEvent = std::numeric_limits<std::int64_t>::max();
/// Timer payload bit distinguishing a cancel timer from a deadline
/// timer; the low 32 bits carry the ctx index either way.
constexpr std::uint64_t kCancelPayloadBit = std::uint64_t{1} << 32;
}  // namespace

const char* admission_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kRejectNew: return "reject-new";
    case AdmissionPolicy::kDropOldest: return "drop-oldest";
  }
  return "?";
}

NodeServer::NodeServer(storage::BlockDevice& device, ServerConfig config)
    : device_(device), config_(config) {
  if (config_.queue_limit == 0) {
    throw std::invalid_argument("node server: queue limit must be positive");
  }
}

void NodeServer::reset() {
  wheel_.reset();
  if (waiting_ > 0 || in_service_ || !arrivals_.empty()) {
    // Abandoned mid-pipeline: reclaim every context wholesale. When the
    // last batch drained to idle (the engine's normal shape) all
    // contexts are already back on the free list and this is skipped,
    // so resetting a 10k-server fleet stays O(fleet), not O(pool).
    free_head_ = kNil;
    for (std::uint32_t i = 0; i < hot_.size(); ++i) {
      hot_[i].qnext = free_head_;
      free_head_ = i;
    }
  }
  arrivals_.clear();
  arrivals_sorted_ = true;
  have_last_arrival_ = false;
  wait_head_ = wait_tail_ = kNil;
  waiting_ = 0;
  in_service_ = false;
  inflight_ = kNil;
  service_start_ = sim::SimTime::zero();
  busy_until_ = sim::SimTime::zero();
  frontier_ = sim::SimTime::zero();
  service_scale_ = 1.0;
  epoch_max_depth_ = 0;
  stats_ = {};
  completions_.clear();
}

void NodeServer::reserve(std::size_t slots, std::size_t ring) {
  hot_.reserve(slots);
  while (hot_.size() < slots) {
    hot_.emplace_back();
    hot_.back().qnext = free_head_;
    free_head_ = static_cast<std::uint32_t>(hot_.size() - 1);
  }
  cold_.resize(hot_.size());
  wheel_.reserve(slots);
  arrivals_.reserve(ring);
  completions_.reserve(ring);
  expired_.reserve(slots);
}

std::uint32_t NodeServer::acquire_ctx() {
  if (free_head_ == kNil) {
    hot_.emplace_back();
    cold_.emplace_back();
    return static_cast<std::uint32_t>(hot_.size() - 1);
  }
  const std::uint32_t idx = free_head_;
  free_head_ = hot_[idx].qnext;
  return idx;
}

void NodeServer::release_ctx(std::uint32_t idx) {
  hot_[idx].qnext = free_head_;
  free_head_ = idx;
}

void NodeServer::push_wait(std::uint32_t idx) {
  HotCtx& ctx = hot_[idx];
  ctx.qnext = kNil;
  ctx.qprev = wait_tail_;
  if (wait_tail_ != kNil) {
    hot_[wait_tail_].qnext = idx;
  } else {
    wait_head_ = idx;
  }
  wait_tail_ = idx;
  ++waiting_;
}

void NodeServer::unlink_wait(std::uint32_t idx) {
  HotCtx& ctx = hot_[idx];
  if (ctx.qprev != kNil) {
    hot_[ctx.qprev].qnext = ctx.qnext;
  } else {
    wait_head_ = ctx.qnext;
  }
  if (ctx.qnext != kNil) {
    hot_[ctx.qnext].qprev = ctx.qprev;
  } else {
    wait_tail_ = ctx.qprev;
  }
  --waiting_;
}

void NodeServer::submit(sim::SimTime arrival, storage::DiskOpKind kind,
                        std::uint64_t lba, std::uint32_t sector_count,
                        std::span<const std::byte> in,
                        std::span<std::byte> out, sim::SimTime deadline,
                        std::uint64_t tag, sim::SimTime cancel_at) {
  const std::uint32_t idx = acquire_ctx();
  HotCtx& hot = hot_[idx];
  hot.arrival_ns = arrival.ns();
  hot.deadline_ns = deadline.ns();
  hot.cancel_at_ns = cancel_at.ns();
  hot.tag = tag;
  hot.lba = lba;
  hot.timer = sim::TimerWheel::kInvalidTimer;
  hot.cancel_timer = sim::TimerWheel::kInvalidTimer;
  hot.sector_count = sector_count;
  hot.kind = kind;
  ColdCtx& cold = cold_[idx];
  cold.in = in.data();
  cold.in_size = in.size();
  cold.out = out.data();
  cold.out_size = out.size();
  // The engine submits each batch in canonical (issue, seq) order, so
  // the staged ring is normally already sorted; track the invariant so
  // drain() only pays for a sort when a caller actually broke it.
  if (!have_last_arrival_) {
    last_arrival_ns_ = arrival.ns();
    have_last_arrival_ = true;
  } else if (arrival.ns() < last_arrival_ns_) {
    arrivals_sorted_ = false;
  } else {
    last_arrival_ns_ = arrival.ns();
  }
  arrivals_.push_back(idx);
}

void NodeServer::note_depth() {
  const std::uint64_t d = depth();
  stats_.max_depth = std::max(stats_.max_depth, d);
  epoch_max_depth_ = std::max(epoch_max_depth_, d);
}

void NodeServer::fire_timeouts(std::int64_t t_ns) {
  if (waiting_ == 0) return;  // no queued request, no armed timer
  expired_.clear();
  wheel_.advance(sim::SimTime{t_ns}, expired_);
  for (const sim::TimerWheel::Expired& e : expired_) {
    const auto idx = static_cast<std::uint32_t>(e.payload);
    HotCtx& ctx = hot_[idx];
    if (e.payload & kCancelPayloadBit) {
      // A request can have both its deadline and its cancel inside this
      // advance window; whichever fired first already finished it and
      // invalidated the other's timer field — skip the stale record.
      if (ctx.cancel_timer == sim::TimerWheel::kInvalidTimer) continue;
      ctx.cancel_timer = sim::TimerWheel::kInvalidTimer;
      if (ctx.timer != sim::TimerWheel::kInvalidTimer) {
        // The sibling deadline timer is unfired only if it lies beyond
        // the advance window (a fired timer must not be cancel()ed).
        if (ctx.deadline_ns > t_ns) wheel_.cancel(ctx.timer);
        ctx.timer = sim::TimerWheel::kInvalidTimer;
      }
      unlink_wait(idx);
      finish(idx, OutcomeKind::kCancelled, e.deadline, e.deadline);
    } else {
      if (ctx.timer == sim::TimerWheel::kInvalidTimer) continue;
      ctx.timer = sim::TimerWheel::kInvalidTimer;
      if (ctx.cancel_timer != sim::TimerWheel::kInvalidTimer) {
        if (ctx.cancel_at_ns > t_ns) wheel_.cancel(ctx.cancel_timer);
        ctx.cancel_timer = sim::TimerWheel::kInvalidTimer;
      }
      unlink_wait(idx);
      finish(idx, OutcomeKind::kTimedOut, e.deadline, e.deadline);
    }
  }
}

void NodeServer::on_arrival(std::uint32_t idx) {
  HotCtx& ctx = hot_[idx];
  const sim::SimTime now{ctx.arrival_ns};
  ++stats_.submitted;
  if (!in_service_ && waiting_ == 0) {
    // Idle server (the common case off-attack): the wait-queue push and
    // the timer arm/cancel pair would be undone immediately by
    // start_next, so skip them. Stamps, outcomes and depth telemetry
    // match the queued path exactly.
    stats_.max_depth = std::max(stats_.max_depth, std::uint64_t{1});
    epoch_max_depth_ = std::max(epoch_max_depth_, std::uint64_t{1});
    const sim::SimTime start = sim::max(now, busy_until_);
    const bool deadline_due =
        config_.drop_expired && start.ns() >= ctx.deadline_ns;
    const bool cancel_due = ctx.cancel_at_ns <= start.ns();
    // Both elapsed before service could start: the earlier event wins
    // (ties to the deadline, matching wheel schedule order).
    if (deadline_due && (!cancel_due || ctx.deadline_ns <= ctx.cancel_at_ns)) {
      const sim::SimTime deadline{ctx.deadline_ns};
      finish(idx, OutcomeKind::kTimedOut, deadline, deadline);
      return;
    }
    if (cancel_due) {
      const sim::SimTime cancel{ctx.cancel_at_ns};
      finish(idx, OutcomeKind::kCancelled, cancel, cancel);
      return;
    }
    start_service(idx, start);
    return;
  }
  if (depth() >= config_.queue_limit) {
    if (config_.admission == AdmissionPolicy::kDropOldest && waiting_ > 0) {
      // Evict the head of the line: the newcomer is the request the
      // client still cares most about.
      const std::uint32_t oldest = wait_head_;
      unlink_wait(oldest);
      disarm_timers(oldest);
      finish(oldest, OutcomeKind::kShed, now, now);
    } else {
      finish(idx, OutcomeKind::kShed, now, now);
      return;
    }
  }
  push_wait(idx);
  if (config_.drop_expired) {
    ctx.timer = wheel_.schedule(sim::SimTime{ctx.deadline_ns}, idx);
  }
  if (ctx.cancel_at_ns != kNoEvent) {
    ctx.cancel_timer =
        wheel_.schedule(sim::SimTime{ctx.cancel_at_ns}, idx | kCancelPayloadBit);
  }
  note_depth();
  if (!in_service_) start_next(now);
}

void NodeServer::disarm_timers(std::uint32_t idx) {
  HotCtx& ctx = hot_[idx];
  if (ctx.timer != sim::TimerWheel::kInvalidTimer) {
    wheel_.cancel(ctx.timer);
    ctx.timer = sim::TimerWheel::kInvalidTimer;
  }
  if (ctx.cancel_timer != sim::TimerWheel::kInvalidTimer) {
    wheel_.cancel(ctx.cancel_timer);
    ctx.cancel_timer = sim::TimerWheel::kInvalidTimer;
  }
}

void NodeServer::start_next(sim::SimTime now) {
  while (waiting_ > 0) {
    const std::uint32_t idx = wait_head_;
    unlink_wait(idx);
    disarm_timers(idx);
    HotCtx& ctx = hot_[idx];
    const sim::SimTime start = sim::max(now, busy_until_);
    const bool deadline_due =
        config_.drop_expired && start.ns() >= ctx.deadline_ns;
    const bool cancel_due = ctx.cancel_at_ns <= start.ns();
    if (deadline_due && (!cancel_due || ctx.deadline_ns <= ctx.cancel_at_ns)) {
      // Backstop for cross-batch time travel: backlog from a previous
      // drain already covers this request's whole deadline window, so
      // the wheel (which only advances within the batch) never saw it
      // expire. Same stamps as a wheel timeout.
      const sim::SimTime deadline{ctx.deadline_ns};
      finish(idx, OutcomeKind::kTimedOut, deadline, deadline);
      continue;
    }
    if (cancel_due) {
      // Same backstop for the cancel timer: the hedge sibling won inside
      // the backlog window the wheel never advanced across.
      const sim::SimTime cancel{ctx.cancel_at_ns};
      finish(idx, OutcomeKind::kCancelled, cancel, cancel);
      continue;
    }
    start_service(idx, start);
    return;
  }
}

void NodeServer::start_service(std::uint32_t idx, sim::SimTime start) {
  in_service_ = true;
  inflight_ = idx;
  service_start_ = start;
  const HotCtx& ctx = hot_[idx];
  const ColdCtx& cold = cold_[idx];
  storage::BlockIo io;
  switch (ctx.kind) {
    case storage::DiskOpKind::kRead:
      io = device_.read(start, ctx.lba, ctx.sector_count,
                        std::span<std::byte>(cold.out, cold.out_size));
      break;
    case storage::DiskOpKind::kWrite:
      io = device_.write(start, ctx.lba, ctx.sector_count,
                         std::span<const std::byte>(cold.in, cold.in_size));
      break;
    case storage::DiskOpKind::kFlush:
      io = device_.flush(start);
      break;
  }
  std::int64_t complete_ns = io.complete.ns();
  if (service_scale_ != 1.0 && !io.complete.is_infinite()) {
    const double span = static_cast<double>(complete_ns - start.ns());
    complete_ns = start.ns() + static_cast<std::int64_t>(span * service_scale_);
  }
  inflight_complete_ns_ = complete_ns;
  inflight_ok_ = io.ok();
}

void NodeServer::complete_inflight() {
  const std::uint32_t idx = inflight_;
  in_service_ = false;
  inflight_ = kNil;
  busy_until_ = sim::SimTime{inflight_complete_ns_};
  finish(idx, inflight_ok_ ? OutcomeKind::kServed : OutcomeKind::kFailed,
         service_start_, busy_until_);
  start_next(busy_until_);
}

void NodeServer::finish(std::uint32_t idx, OutcomeKind outcome,
                        sim::SimTime start, sim::SimTime complete) {
  switch (outcome) {
    case OutcomeKind::kServed: ++stats_.served; break;
    case OutcomeKind::kFailed: ++stats_.failed; break;
    case OutcomeKind::kTimedOut: ++stats_.timed_out; break;
    case OutcomeKind::kShed: ++stats_.shed; break;
    case OutcomeKind::kCancelled: ++stats_.cancelled; break;
  }
  frontier_ = sim::max(frontier_, complete);
  const HotCtx& ctx = hot_[idx];
  completions_.push_back(ServeResult{ctx.tag, outcome,
                                     sim::SimTime{ctx.arrival_ns}, start,
                                     complete});
  release_ctx(idx);
}

sim::SimTime NodeServer::drain() {
  if (!arrivals_sorted_) {
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return hot_[a].arrival_ns < hot_[b].arrival_ns;
                     });
    arrivals_sorted_ = true;
  }
  // Three-way merge in virtual time: staged arrivals x the in-flight
  // completion x wheel deadlines. Deadlines at or before an event fire
  // first; arrivals win arrival/completion ties (they were staged
  // before the completion existed — the order the event queue this ring
  // replaced would have produced).
  std::size_t ai = 0;
  const std::size_t n_arrivals = arrivals_.size();
  for (;;) {
    const std::int64_t next_arrival =
        ai < n_arrivals ? hot_[arrivals_[ai]].arrival_ns : kNoEvent;
    const std::int64_t next_complete =
        in_service_ ? inflight_complete_ns_ : kNoEvent;
    if (next_arrival == kNoEvent && next_complete == kNoEvent) break;
    if (next_complete < next_arrival) {
      fire_timeouts(next_complete);
      complete_inflight();
    } else {
      fire_timeouts(next_arrival);
      on_arrival(arrivals_[ai++]);
    }
  }
  arrivals_.clear();
  have_last_arrival_ = false;
  return frontier_;
}

std::uint64_t NodeServer::take_epoch_max_depth() {
  const std::uint64_t d = epoch_max_depth_;
  epoch_max_depth_ = depth();
  return d;
}

}  // namespace deepnote::cluster::serving
