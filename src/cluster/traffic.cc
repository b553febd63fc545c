#include "cluster/traffic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace deepnote::cluster {

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

std::uint64_t ZipfAliasSampler::next(sim::Rng& rng) const {
  const std::uint64_t bucket = rng.next_u64() % n_;
  const double coin = rng.next_double();
  return coin < accept_[bucket] ? bucket : alias_[bucket];
}

double ZipfAliasSampler::probability(std::uint64_t rank) const {
  return 1.0 / (std::pow(static_cast<double>(rank + 1), theta_) * zetan_);
}

void ClosedLoopPopulation::push_pending(std::uint32_t client,
                                        sim::SimTime at) {
  shard_wheels_[client / clients_per_shard_].schedule(at, client);
}

void ClosedLoopPopulation::reset(const TrafficConfig& traffic,
                                 std::size_t clients,
                                 const resilience::BackoffConfig& backoff,
                                 resilience::RetryBudget* budget,
                                 sim::SimTime start, std::size_t shards) {
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
  if (shards == 0) shards = 1;
  if (shards > clients) shards = clients;
  think_mean_s_ = static_cast<double>(clients) / traffic.arrival_rate_per_s;
  read_fraction_ = traffic.read_fraction;
  backoff_ = backoff;
  budget_ = budget;
  retries_ = 0;
  clients_.assign(clients, Client{});
  clients_per_shard_ = (clients + shards - 1) / shards;
  // Keep warm wheel slabs when the shard layout repeats; otherwise
  // rebuild the vector (TimerWheel is movable, not copyable).
  if (shard_wheels_.size() != shards) {
    shard_wheels_.clear();
    shard_wheels_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shard_wheels_.emplace_back();
  }
  for (sim::TimerWheel& wheel : shard_wheels_) {
    wheel.reset(start);
    wheel.reserve(clients_per_shard_);
  }
  sim::Rng master(traffic.seed);
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    Client& c = clients_[i];
    c.rng = master.fork();
    // Jitter draws must not consume the key stream: fork a private
    // splitmix64 state per client off the traffic seed.
    c.jitter_state =
        traffic.seed ^ (0x9e3779b97f4a7c15ull * (std::uint64_t{i} + 1));
    push_pending(i, start + sim::Duration::from_seconds(
                               c.rng.exponential(think_mean_s_)));
  }
}

void ClosedLoopPopulation::collect_due(sim::SimTime horizon,
                                       const ZipfAliasSampler& zipf,
                                       std::vector<ClientIssue>& out) {
  const std::size_t first = out.size();
  // The wheel fires deadline <= t; collect_due's contract is strictly
  // below the horizon, so harvest to horizon - 1ns.
  const sim::SimTime limit{horizon.ns() - 1};
  for (sim::TimerWheel& wheel : shard_wheels_) {
    expired_.clear();
    wheel.advance(limit, expired_);
    for (const sim::TimerWheel::Expired& e : expired_) {
      const auto client = static_cast<std::uint32_t>(e.payload);
      Client& c = clients_[client];
      if (c.has_retry == 0) {
        // Drawn against the client's own forked stream, so the order
        // shards (or clients within one) are visited cannot matter.
        c.key = zipf.next(c.rng);
        c.is_read = c.rng.bernoulli(read_fraction_) ? 1 : 0;
        c.attempts = 0;
        if (budget_ != nullptr) budget_->earn();
      }
      out.push_back(ClientIssue{e.deadline, client, c.key, c.is_read != 0});
      // The client is now in flight: it re-enters its wheel at complete().
    }
  }
  // Each shard fires in (at, schedule) order; merging the streams is a
  // sort of the (typically tiny) due set. (at, client) pairs are unique,
  // so the merged order — and every byte downstream — is independent of
  // the shard layout.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const ClientIssue& a, const ClientIssue& b) {
              return a.at == b.at ? a.client < b.client : a.at < b.at;
            });
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
    push_pending(client,
                 when + resilience::backoff_delay(
                            backoff_, c.attempts,
                            resilience::next_jitter_word(c.jitter_state)));
    return;
  }
  c.has_retry = 0;
  push_pending(client, when + sim::Duration::from_seconds(
                           c.rng.exponential(think_mean_s_)));
}

}  // namespace deepnote::cluster
