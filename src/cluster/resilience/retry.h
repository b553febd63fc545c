// Retry governance primitives: backoff shaping and the cluster-wide
// retry budget.
//
// Retry traffic is the amplifier that turns a transient overload into a
// metastable one (Shahrad et al., PAPERS.md): every failed request
// re-arrives, so offered load *rises* exactly when capacity falls, and
// the system can stay collapsed long after the trigger is gone. The two
// levers here bound that amplification:
//
//  * BackoffConfig shapes the client's re-issue delay. Exponential
//    growth spreads a storm over time; per-client jitter decorrelates
//    the waves (a fixed backoff re-synchronizes every client that
//    failed in the same epoch — the worst possible shape for the
//    measurement this layer exists to study).
//  * RetryBudget is a cluster-wide token bucket in the style of a load
//    balancer's retry budget: fresh requests earn fractional tokens,
//    each retry spends a whole one. Under a storm the bucket empties
//    and retries are denied, pinning the retry rate to a fixed fraction
//    of the fresh-request rate regardless of how bad things get.
//
// Everything is deterministic: backoff jitter consumes caller-supplied
// 64-bit words (one splitmix64 stream per client, forked off the trial
// seed), never a shared RNG, so results are byte-identical at any
// DEEPNOTE_JOBS.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace deepnote::cluster::resilience {

enum class BackoffKind : std::uint8_t {
  kFixed,        ///< base every attempt (the naive client)
  kExponential,  ///< base * 2^(attempt-1), capped
};

const char* backoff_kind_name(BackoffKind kind);

struct BackoffConfig {
  BackoffKind kind = BackoffKind::kExponential;
  sim::Duration base = sim::Duration::from_millis(5.0);
  /// Upper bound on the pre-jitter delay (exponential growth crosses any
  /// cap quickly; fixed is clamped too for uniformity).
  sim::Duration cap = sim::Duration::from_millis(500.0);
  /// Fraction of the delay that is randomized: the delay becomes
  /// d * (1 - jitter + jitter * u), u uniform in [0, 1). 0 = none,
  /// 1 = "full jitter" (uniform over (0, d]).
  double jitter = 0.5;
  /// Retries allowed per request. 0 disables retries entirely;
  /// 0xffffffff is effectively unlimited (the naive client).
  std::uint32_t max_retries = 3;
  /// Retry device failures and deadline misses too, not just sheds.
  bool retry_failures = false;
};

/// Unlimited-retries sentinel for max_retries.
inline constexpr std::uint32_t kUnlimitedRetries = 0xffffffffu;

/// Delay before retry number `attempt` (1-based: the first retry of a
/// request passes attempt = 1). `jitter_word` supplies the randomness;
/// the same word always yields the same delay.
sim::Duration backoff_delay(const BackoffConfig& config, std::uint32_t attempt,
                            std::uint64_t jitter_word);

/// One step of a splitmix64 stream: the per-client jitter source. Seed
/// the state off the trial seed (xor'ed with a client-unique constant)
/// so streams are independent of each other and of the key RNG.
inline std::uint64_t next_jitter_word(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct RetryBudgetConfig {
  bool enabled = false;
  /// Tokens earned per fresh (non-retry) request issued.
  double earn_per_request = 0.5;
  /// Bucket capacity (also the starting balance).
  double cap = 32.0;
};

/// Cluster-wide token-bucket retry budget. The engine keeps two: one
/// gates closed-loop client retries, the other its own replica
/// failovers. Single-threaded by design: earn() and try_spend() run in
/// the engine's single-threaded routing and combine sections, never on
/// wave shards.
class RetryBudget {
 public:
  RetryBudget() = default;
  explicit RetryBudget(RetryBudgetConfig config) : config_(config) {}

  const RetryBudgetConfig& config() const { return config_; }

  /// Refill to the starting balance and zero the counters.
  void reset() {
    tokens_ = config_.cap;
    spent_ = 0;
    denied_ = 0;
  }

  /// A fresh request was issued: credit the bucket.
  void earn() {
    tokens_ = tokens_ + config_.earn_per_request;
    if (tokens_ > config_.cap) tokens_ = config_.cap;
  }

  /// A retry wants to go out: spend one token or deny it.
  bool try_spend() {
    if (tokens_ < 1.0) {
      ++denied_;
      return false;
    }
    tokens_ -= 1.0;
    ++spent_;
    return true;
  }

  double tokens() const { return tokens_; }
  std::uint64_t spent() const { return spent_; }
  std::uint64_t denied() const { return denied_; }

 private:
  RetryBudgetConfig config_;
  double tokens_ = 0.0;
  std::uint64_t spent_ = 0;
  std::uint64_t denied_ = 0;
};

}  // namespace deepnote::cluster::resilience
