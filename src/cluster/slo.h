// Service-level accounting for cluster traffic: windowed availability,
// log-bucketed latency quantiles (p50/p99/p999), and error-budget math.
//
// Availability is request availability: a request counts as served when
// the engine returned success within its deadline, and it is charged
// to the fixed-width window its *arrival* falls in (open-loop load — the
// client does not slow down because the service got slow). A focus
// interval (the attack window) is accounted separately and exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace deepnote::cluster {

/// Terminal state of a request (or of one replica leg inside the serving
/// pipeline). Every admitted request ends in exactly one of these.
enum class OutcomeKind : std::uint8_t {
  kServed = 0,    ///< completed successfully within its deadline
  kFailed = 1,    ///< device/storage error
  kTimedOut = 2,  ///< deadline expired (in queue or completed too late)
  kShed = 3,      ///< rejected by admission control before service
  kCancelled = 4, ///< hedge leg cancelled after the other leg won
};
inline constexpr std::size_t kNumOutcomeKinds = 5;

const char* outcome_name(OutcomeKind kind);

struct SloConfig {
  sim::Duration window = sim::Duration::from_seconds(1.0);
  /// Availability objective the error budget is measured against.
  double availability_target = 0.999;
};

class SloTracker {
 public:
  explicit SloTracker(sim::SimTime start, SloConfig config = {});

  /// Account requests arriving in [begin, end) separately (the attack
  /// window). Call before recording.
  void set_focus(sim::SimTime begin, sim::SimTime end);

  void record_success(sim::SimTime arrival, sim::Duration latency);
  void record_failure(sim::SimTime arrival);
  /// Serving-path recording: like record_success/record_failure (kServed
  /// is a success, everything else a failure) but also keeps per-kind
  /// counts so shed/timeout totals survive into reports. `latency` is
  /// only read for kServed.
  void record_outcome(sim::SimTime arrival, OutcomeKind kind,
                      sim::Duration latency = sim::Duration::zero());

  struct Window {
    std::uint64_t ok = 0;
    std::uint64_t fail = 0;
    double availability() const {
      const std::uint64_t n = ok + fail;
      return n == 0 ? 1.0 : static_cast<double>(ok) / static_cast<double>(n);
    }
  };
  /// Fixed-width windows from `start`; trailing all-zero windows absent.
  const std::vector<Window>& windows() const { return windows_; }
  sim::SimTime start() const { return start_; }
  const SloConfig& config() const { return config_; }

  std::uint64_t total() const { return ok_ + fail_; }
  std::uint64_t succeeded() const { return ok_; }
  std::uint64_t failed() const { return fail_; }
  double availability() const;
  /// Availability over the focus interval (1.0 when it saw no traffic).
  double focus_availability() const;
  std::uint64_t focus_total() const { return focus_ok_ + focus_fail_; }

  /// Per-kind totals (only populated through record_outcome; the plain
  /// success/failure entry points count as kServed / kFailed).
  std::uint64_t outcome_count(OutcomeKind kind) const {
    return kind_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t focus_outcome_count(OutcomeKind kind) const {
    return focus_kind_[static_cast<std::size_t>(kind)];
  }

  const sim::LatencyHistogram& latencies() const { return latencies_; }
  sim::Duration p50() const { return latencies_.quantile(0.50); }
  sim::Duration p99() const { return latencies_.quantile(0.99); }
  sim::Duration p999() const { return latencies_.quantile(0.999); }

  /// Fraction of the error budget consumed: failures relative to the
  /// failures the target tolerates over the observed request count.
  /// > 1.0 means the SLO is violated; 0 when no traffic.
  double error_budget_consumed() const;

 private:
  Window& window_for(sim::SimTime arrival);
  void account(sim::SimTime arrival, bool ok);

  sim::SimTime start_;
  SloConfig config_;
  std::vector<Window> windows_;
  std::uint64_t ok_ = 0;
  std::uint64_t fail_ = 0;
  sim::SimTime focus_begin_ = sim::SimTime::infinity();
  sim::SimTime focus_end_ = sim::SimTime::infinity();
  std::uint64_t focus_ok_ = 0;
  std::uint64_t focus_fail_ = 0;
  std::uint64_t kind_[kNumOutcomeKinds] = {};
  std::uint64_t focus_kind_[kNumOutcomeKinds] = {};
  sim::LatencyHistogram latencies_;
};

}  // namespace deepnote::cluster
