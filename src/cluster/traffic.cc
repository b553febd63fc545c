#include "cluster/traffic.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace deepnote::cluster {

namespace {

/// A run's issue order. A client has at most one pending issue, so a
/// population's (at, client) pairs are unique; open-loop arrivals are
/// all client 0, and a run keeps equal ones in arrival order.
constexpr auto issue_before = [](const ClientIssue& a, const ClientIssue& b) {
  return a.at == b.at ? a.client < b.client : a.at < b.at;
};

}  // namespace

ZipfAliasSampler::ZipfAliasSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  if (n_ == 0) throw std::invalid_argument("zipf: empty keyspace");
  if (n_ > 0xffffffffull) {
    throw std::invalid_argument("zipf: alias table caps at 2^32 ranks");
  }
  if (theta_ <= 0.0 || theta_ >= 1.0) {
    throw std::invalid_argument("zipf: theta must be in (0, 1)");
  }
  // One pass for the normalizer, one to split buckets into under/over
  // full, one to pair them up (Vose). All index order, fully
  // deterministic.
  std::vector<double> weight(n_);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n_; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta_);
    sum += weight[i];
  }
  zetan_ = sum;
  accept_.assign(n_, 1.0);
  alias_.assign(n_, 0);
  // Scale so the average bucket holds exactly 1.0 of probability mass.
  const double scale = static_cast<double>(n_) / sum;
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n_);
  large.reserve(n_);
  for (std::uint64_t i = 0; i < n_; ++i) {
    weight[i] *= scale;
    if (weight[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    accept_[s] = weight[s];
    alias_[s] = l;
    weight[l] -= 1.0 - weight[s];
    if (weight[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (floating-point dust): their buckets are full.
  for (const std::uint32_t i : large) accept_[i] = 1.0;
  for (const std::uint32_t i : small) accept_[i] = 1.0;
}

double ZipfAliasSampler::probability(std::uint64_t rank) const {
  return 1.0 / (std::pow(static_cast<double>(rank + 1), theta_) * zetan_);
}

void IssueRuns::clear(std::size_t runs) {
  runs_.resize(runs);
  for (Run& run : runs_) run.issues.clear();
}

std::size_t IssueRuns::size() const {
  std::size_t issues = 0;
  for (const Run& run : runs_) issues += run.issues.size();
  return issues;
}

void IssueRuns::split(std::size_t slices) {
  const std::size_t nr = runs_.size();
  bounds_.resize((slices + 1) * nr);
  slice_begin_.resize(slices + 1);
  heads_.resize(slices * nr);
  // Cut every run at the same (at, client) keys, taken at even steps
  // along the longest run: the runs' issues spread alike, so the slices
  // come out about equal.
  std::size_t longest = 0;
  for (std::size_t r = 1; r < nr; ++r) {
    if (runs_[r].issues.size() > runs_[longest].issues.size()) longest = r;
  }
  const std::vector<ClientIssue>& pivots = runs_[longest].issues;
  for (std::size_t s = 0; s <= slices; ++s) {
    std::size_t begin = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      const std::vector<ClientIssue>& run = runs_[r].issues;
      std::size_t cut = 0;
      if (s == slices) {
        cut = run.size();
      } else if (s > 0 && !run.empty()) {
        const ClientIssue& pivot = pivots[pivots.size() * s / slices];
        cut = static_cast<std::size_t>(
            std::lower_bound(run.begin(), run.end(), pivot, issue_before) -
            run.begin());
      }
      bounds_[s * nr + r] = static_cast<std::uint32_t>(cut);
      begin += cut;
    }
    slice_begin_[s] = begin;
  }
}

void IssueCalendar::reset(sim::SimTime origin, std::size_t capacity) {
  origin_ns_ = origin.ns();
  now_ns_ = origin.ns();
  cursor_ = 0;
  base_ = 0;
  head_.assign(static_cast<std::size_t>(kWindow), kNil);
  occupied_.fill(0);
  pool_.clear();
  free_ = kNil;
  far_.clear();
  far_.reserve(capacity);
  overdue_.clear();
}

void IssueCalendar::schedule(sim::SimTime at, std::uint32_t id) {
  if (at.ns() <= now_ns_) {
    overdue_.push_back(Entry{at, id});
    return;
  }
  // at > now_ns_, so the tick is at least cursor_: inside the window
  // unless it is at or past its end.
  const std::int64_t tick = tick_of(at);
  if (tick < base_ + kWindow) {
    put(tick, Entry{at, id});
  } else {
    far_.push_back(Entry{at, id});
  }
}

void IssueCalendar::put(std::int64_t tick, const Entry& e) {
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = pool_[n].next;
  } else {
    n = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  const auto slot = static_cast<std::size_t>(tick & (kWindow - 1));
  pool_[n] = Node{e.at.ns(), e.id, head_[slot]};
  head_[slot] = n;
  occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void IssueCalendar::slide() {
  base_ += kHalf;
  // Every far record lies at or past the old window's end, which is
  // the new window's second half: none lands at or below the cursor.
  const std::int64_t end = base_ + kWindow;
  std::size_t keep = 0;
  for (const Entry& e : far_) {
    const std::int64_t tick = tick_of(e.at);
    if (tick < end) {
      put(tick, e);
    } else {
      far_[keep++] = e;
    }
  }
  far_.resize(keep);
}

std::int64_t IssueCalendar::next_occupied(std::int64_t from,
                                          std::int64_t to) const {
  // The window's halves start on multiples of kHalf, so [from, to)
  // maps onto consecutive slots without wrapping round the ring.
  const std::int64_t first = from & (kWindow - 1);
  const std::int64_t end = first + (to - from);
  std::int64_t slot = first;
  while (slot < end) {
    const std::uint64_t word =
        occupied_[static_cast<std::size_t>(slot / 64)] >> (slot % 64);
    if (word != 0) {
      slot += std::countr_zero(word);
      return slot < end ? from + (slot - first) : to;
    }
    slot = (slot / 64 + 1) * 64;
  }
  return to;
}

template <class Record>
void IssueCalendar::harvest(sim::SimTime limit, std::vector<Record>& out) {
  // The clock is monotone, as the wheel's is: an earlier limit harvests
  // at the previous one.
  if (limit.ns() > now_ns_) now_ns_ = limit.ns();
  for (const Entry& e : overdue_) out.push_back(Record{e.at, e.id});
  overdue_.clear();
  // Every bucket below the limit's tick is due in full. The cursor
  // stops at each half-window mark to slide.
  const std::int64_t target = tick_of(sim::SimTime{now_ns_});
  while (cursor_ < target) {
    const std::int64_t stop = std::min(target, base_ + kHalf);
    cursor_ = next_occupied(cursor_, stop);
    if (cursor_ < stop) {
      const auto slot = static_cast<std::size_t>(cursor_ & (kWindow - 1));
      std::uint32_t n = head_[slot];
      while (n != kNil) {
        Node& node = pool_[n];
        out.push_back(Record{sim::SimTime{node.at_ns}, node.id});
        const std::uint32_t next = node.next;
        node.next = free_;
        free_ = n;
        n = next;
      }
      head_[slot] = kNil;
      occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      ++cursor_;
    }
    if (cursor_ == base_ + kHalf) slide();
  }
  // The limit's own tick holds records on both sides of it: relink
  // the later ones.
  const auto slot = static_cast<std::size_t>(cursor_ & (kWindow - 1));
  std::uint32_t n = head_[slot];
  head_[slot] = kNil;
  while (n != kNil) {
    Node& node = pool_[n];
    const std::uint32_t next = node.next;
    if (node.at_ns <= now_ns_) {
      out.push_back(Record{sim::SimTime{node.at_ns}, node.id});
      node.next = free_;
      free_ = n;
    } else {
      node.next = head_[slot];
      head_[slot] = n;
    }
    n = next;
  }
  if (head_[slot] == kNil) {
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }
}

template void IssueCalendar::harvest(sim::SimTime, std::vector<Entry>&);
template void IssueCalendar::harvest(sim::SimTime, std::vector<ClientIssue>&);

void ClosedLoopPopulation::reset(const TrafficConfig& traffic,
                                 std::size_t clients,
                                 const resilience::BackoffConfig& backoff,
                                 resilience::RetryBudget* budget,
                                 sim::SimTime start, std::size_t partitions) {
  if (clients == 0) {
    throw std::invalid_argument("closed loop: needs at least one client");
  }
  if (traffic.arrival_rate_per_s <= 0.0) {
    throw std::invalid_argument("closed loop: arrival rate must be positive");
  }
  if (backoff.base.ns() <= 0) {
    // A zero delay would let a retry re-enter the very round that shed
    // it — livelock fuel; the engine's round loop relies on every
    // re-issue moving strictly forward in time.
    throw std::invalid_argument("closed loop: backoff base must be positive");
  }
  if (backoff.jitter < 0.0 || backoff.jitter > 1.0) {
    throw std::invalid_argument("closed loop: jitter must be in [0, 1]");
  }
  think_mean_s_ = static_cast<double>(clients) / traffic.arrival_rate_per_s;
  read_fraction_ = traffic.read_fraction;
  backoff_ = backoff;
  budget_ = budget;
  retries_ = 0;
  clients_.assign(clients, Client{});
  // Equal ranges, so the last one holds the remainder and no range is
  // empty: ceil(clients / size) of them.
  const std::size_t wanted =
      std::clamp<std::size_t>(partitions, 1, std::min<std::size_t>(
                                                 clients, std::size_t{1} << 16));
  const std::size_t size = (clients + wanted - 1) / wanted;
  parts_.resize((clients + size - 1) / size);
  sim::Rng master(traffic.seed);
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    Partition& part = parts_[p];
    const std::size_t lo = p * size;
    const std::size_t hi = std::min(clients, lo + size);
    // A client has at most one pending issue.
    part.calendar.reset(start, hi - lo);
    part.earns = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      Client& c = clients_[i];
      c.rng = master.fork();
      // Jitter draws must not consume the key stream: fork a private
      // splitmix64 state per client off the traffic seed.
      c.jitter_state =
          traffic.seed ^ (0x9e3779b97f4a7c15ull * (std::uint64_t{i} + 1));
      c.part = static_cast<std::uint16_t>(p);
      part.calendar.schedule(start + sim::Duration::from_seconds(
                                         c.rng.exponential(think_mean_s_)),
                             static_cast<std::uint32_t>(i));
    }
  }
}

std::size_t ClosedLoopPopulation::collect_runs(sim::SimTime horizon,
                                               const ZipfAliasSampler& zipf,
                                               IssueRuns& round,
                                               sim::TaskPool* pool) {
  round.clear(parts_.size());
  round_horizon_ = horizon;
  round_zipf_ = &zipf;
  round_ = &round;
  // Captures only `this`, so the std::function holds it without an
  // allocation.
  const auto collect = [this](std::size_t p) {
    collect_partition(parts_[p], round_horizon_, *round_zipf_, round_->run(p));
  };
  if (pool != nullptr && parts_.size() > 1) {
    pool->run_indexed(parts_.size(), collect);
  } else {
    for (std::size_t p = 0; p < parts_.size(); ++p) collect(p);
  }
  if (budget_ != nullptr) {
    for (const Partition& part : parts_) {
      for (std::uint64_t i = 0; i < part.earns; ++i) budget_->earn();
    }
  }
  return round.size();
}

void ClosedLoopPopulation::collect_partition(Partition& part,
                                             sim::SimTime horizon,
                                             const ZipfAliasSampler& zipf,
                                             std::vector<ClientIssue>& out) {
  // The calendar hands out at <= limit; a round takes the clients due
  // strictly below the horizon, so harvest to horizon - 1ns.
  part.earns = 0;
  part.calendar.harvest(sim::SimTime{horizon.ns() - 1}, out);
  // This order, and every byte downstream, does not depend on how the
  // calendar laid the records out.
  std::sort(out.begin(), out.end(), issue_before);
  constexpr std::size_t kAhead = 4;
  constexpr std::size_t kBatch = ZipfAliasSampler::kBatch;
  for (std::size_t lo = 0; lo < out.size(); lo += kBatch) {
    const std::size_t hi = std::min(out.size(), lo + kBatch);
    // Pass 1: every fresh client in the batch draws its key and read
    // coin, starting the key's table fetch. Drawn against the client's
    // own forked stream, so the order clients are visited in cannot
    // matter.
    for (std::size_t i = lo; i < hi; ++i) {
      if (i + kAhead < out.size()) prefetch(out[i + kAhead].client);
      Client& c = clients_[out[i].client];
      if (c.has_retry != 0) continue;
      part.draws[i - lo] = zipf.draw(c.rng);
      zipf.prefetch(part.draws[i - lo].bucket);
      c.is_read = c.rng.bernoulli(read_fraction_) ? 1 : 0;
      c.attempts = 0;
      ++part.earns;
    }
    // Pass 2: resolve the keys into the issues. A retry re-sends the key
    // it already holds.
    for (std::size_t i = lo; i < hi; ++i) {
      ClientIssue& issue = out[i];
      Client& c = clients_[issue.client];
      if (c.has_retry == 0) c.key = zipf.resolve(part.draws[i - lo]);
      issue.key = c.key;
      issue.is_read = c.is_read != 0;
      // The client is now in flight: it is scheduled again at complete().
    }
  }
}

void ClosedLoopPopulation::complete(std::uint32_t client, sim::SimTime when,
                                    OutcomeKind outcome) {
  Client& c = clients_[client];
  const bool retryable =
      outcome == OutcomeKind::kShed ||
      (backoff_.retry_failures && (outcome == OutcomeKind::kFailed ||
                                   outcome == OutcomeKind::kTimedOut));
  if (retryable && c.attempts < backoff_.max_retries &&
      (budget_ == nullptr || budget_->try_spend())) {
    ++c.attempts;
    ++retries_;
    c.has_retry = 1;
    parts_[c.part].calendar.schedule(
        when + resilience::backoff_delay(
                   backoff_, c.attempts,
                   resilience::next_jitter_word(c.jitter_state)),
        client);
    return;
  }
  c.has_retry = 0;
  parts_[c.part].calendar.schedule(
      when + sim::Duration::from_seconds(c.rng.exponential(think_mean_s_)),
      client);
}

void sort_by_time(std::vector<TimelineAction>& actions) {
  const auto by_time = [](const TimelineAction& a, const TimelineAction& b) {
    return a.at < b.at;
  };
  if (!std::is_sorted(actions.begin(), actions.end(), by_time)) {
    std::stable_sort(actions.begin(), actions.end(), by_time);
  }
}

}  // namespace deepnote::cluster
