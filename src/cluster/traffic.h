// Traffic inputs for the cluster engine: Zipf object popularity (an
// exact alias-method sampler), the offered load and read/write mix, a
// timeline of scheduled actions (attack on / attack off), and the
// closed-loop client population the serving mode drives.
//
// Open-loop matters for availability numbers: real clients do not slow
// down because the storage got slow, so load keeps arriving at the
// configured rate while drives hang — exactly the regime where a parked
// pod turns into failed requests instead of a quietly longer queue. The
// engine generates that stream itself (engine.h); the closed-loop
// population below is the backpressure alternative.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/resilience/retry.h"
#include "cluster/slo.h"
#include "sim/rng.h"
#include "sim/timer_wheel.h"

namespace deepnote::cluster {

/// Exact Zipf rank sampler via Vose's alias method: O(n) build, O(1)
/// per sample (one table lookup + one biased coin), no per-sample
/// normalization. At millions of keys this is what makes batch traffic
/// generation cheap enough to disappear next to the drive model; it is
/// also *exact* — each rank r is drawn with probability
/// (r+1)^-theta / zeta(n, theta). Rank 0 is the hottest key;
/// placement's key hash scatters ranks across nodes. Deterministic: the
/// table depends only on (n, theta) and each sample consumes exactly
/// two RNG draws.
class ZipfAliasSampler {
 public:
  ZipfAliasSampler(std::uint64_t n, double theta);

  std::uint64_t next(sim::Rng& rng) const;
  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  /// Exact probability of rank r (for tests).
  double probability(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  std::vector<double> accept_;      ///< acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;  ///< fallback rank per bucket
};

struct TrafficConfig {
  /// Aggregate offered load.
  double arrival_rate_per_s = 1000.0;
  sim::Duration duration = sim::Duration::from_seconds(60.0);
  double read_fraction = 0.9;
  std::uint64_t keyspace = 20000;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

/// One scheduled control action (start/stop an attack, drain a pod...).
/// Fired at the engine's epoch barrier at `at`; the callback receives
/// `at`, or the latest completion already handed out if that is later.
struct TimelineAction {
  sim::SimTime at = sim::SimTime::zero();
  std::function<void(sim::SimTime)> fn;
};

struct TrafficReport {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// One request issue from a closed-loop client (already keyed and typed;
/// the drawing happened against the issuing client's own RNG stream).
struct ClientIssue {
  sim::SimTime at = sim::SimTime::zero();
  std::uint32_t client = 0;
  std::uint64_t key = 0;
  bool is_read = true;
};

/// A fixed population of closed-loop clients: each client issues one
/// request, waits for its outcome, then thinks for an exponential gap
/// before the next — so when the service slows down, offered load drops
/// with it (backpressure), instead of the open-loop regime where
/// arrivals keep coming at the configured rate.
///
/// Failed outcomes feed the retry loop this layer exists to study: the
/// client re-issues the same key after a BackoffConfig-shaped delay
/// (fixed / linear / exponential, with deterministic per-client jitter)
/// up to a retry cap, optionally gated by a cluster-wide RetryBudget —
/// which is exactly the retry-storm amplification loop the overload
/// experiment measures.
///
/// Deterministic: every client owns a forked RNG stream and draws its
/// key/read-coin at issue time; backoff jitter comes from a separate
/// per-client splitmix64 stream (so turning jitter on or off never
/// perturbs key draws). The request sequence depends only on
/// (seed, outcome timeline), never on batching.
///
/// The population is sharded: clients are split into contiguous blocks,
/// each owning a timer wheel of (next_issue, client) for its idle
/// members. collect_due harvests only the due timers and merges the
/// shard streams into canonical (at, client) order, so a round over a
/// 10k-client population costs O(due) instead of a full scan. The
/// merged order — and therefore every downstream byte — is identical
/// at any shard count.
class ClosedLoopPopulation {
 public:
  ClosedLoopPopulation() = default;

  /// (Re)seed `clients` streams from `traffic.seed`. Per-client think
  /// mean is clients / arrival_rate, so the aggregate no-load offered
  /// rate matches the open-loop configuration. `shards` only affects
  /// data layout (it follows the engine's shard count); results do not
  /// depend on it. `budget`, when non-null, must outlive the population
  /// and gates every retry (it is earned by fresh issues here too).
  void reset(const TrafficConfig& traffic, std::size_t clients,
             const resilience::BackoffConfig& backoff,
             resilience::RetryBudget* budget, sim::SimTime start,
             std::size_t shards = 1);

  /// Append every client whose next issue falls before `horizon` to
  /// `out` (sorted by (at, client)) and mark them in flight. Their keys
  /// are drawn here, against each client's own stream.
  void collect_due(sim::SimTime horizon, const ZipfAliasSampler& zipf,
                   std::vector<ClientIssue>& out);

  /// Report the outcome of `client`'s in-flight request at `when`.
  void complete(std::uint32_t client, sim::SimTime when, OutcomeKind outcome);

  std::size_t size() const { return clients_.size(); }
  /// Retry re-issues across the run (budget-approved ones only).
  std::uint64_t retries() const { return retries_; }
  const resilience::BackoffConfig& backoff() const { return backoff_; }

 private:
  struct Client {
    sim::Rng rng{0};
    std::uint64_t key = 0;      ///< current key (kept across retries)
    std::uint64_t jitter_state = 0;  ///< private splitmix64 stream
    std::uint32_t attempts = 0;      ///< retries spent on `key`
    std::uint8_t is_read = 1;
    std::uint8_t has_retry = 0;  ///< next issue re-sends `key`
  };

  void push_pending(std::uint32_t client, sim::SimTime at);

  std::vector<Client> clients_;
  /// Per-shard timer wheel of idle clients keyed by next-issue time;
  /// payload = client index. Harvested strictly below the round horizon.
  std::vector<sim::TimerWheel> shard_wheels_;
  std::vector<sim::TimerWheel::Expired> expired_;  ///< harvest scratch
  std::size_t clients_per_shard_ = 1;
  double think_mean_s_ = 0.0;
  double read_fraction_ = 1.0;
  resilience::BackoffConfig backoff_;
  resilience::RetryBudget* budget_ = nullptr;
  std::uint64_t retries_ = 0;
};

}  // namespace deepnote::cluster
