// Deterministic cluster-level chaos injection.
//
// A resilience layer is only as credible as the faults it was tested
// against, and ad-hoc fault injection is unrepeatable by construction.
// This module makes the fault workload a first-class, seed-replayable
// artifact: make_chaos_schedule(config, base_seed, index) is a pure
// function from (seed, index) to a sorted list of timestamped events —
// node crashes/restarts, failure-detector flap windows (forced
// false-positives and suppressed true-positives), slow-node service
// inflation, and pod-scoped acoustic attack pulses. The same
// (seed, index) always yields the same schedule, and because the
// schedule is materialized before the run starts (and applied at the
// engine's single-threaded epoch barriers via TimelineActions), replays
// are byte-identical at any DEEPNOTE_JOBS.
//
// Each fault class draws from its own forked RNG stream, so enabling or
// re-tuning one class never perturbs the event times of another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace deepnote::cluster {
class Cluster;
class ShardedClusterEngine;
struct TimelineAction;
}  // namespace deepnote::cluster

namespace deepnote::cluster::resilience {

enum class ChaosEventKind : std::uint8_t {
  kNodeCrash = 0,        ///< node hard-down (legs fail instantly)
  kNodeRestart = 1,      ///< paired recovery for a crash
  kDetectorForce = 2,    ///< flap false-positive: force node drained
  kDetectorSuppress = 3, ///< flap false-negative: suppress drain
  kDetectorClear = 4,    ///< end of a flap window
  kSlowNode = 5,         ///< service-time inflation begins
  kSlowNodeEnd = 6,      ///< inflation ends (scale back to 1.0)
  kPodAttackOn = 7,      ///< acoustic attack pulse on a pod begins
  kPodAttackOff = 8,     ///< pulse ends
};

const char* chaos_event_kind_name(ChaosEventKind kind);

/// Failure-detector override while a flap window is active.
enum class ChaosFlapMode : std::uint8_t {
  kNone = 0,       ///< detector behaves normally
  kForceDown = 1,  ///< false-positive: detector drains a healthy node
  kSuppress = 2,   ///< false-negative: detector never drains the node
};

struct ChaosEvent {
  sim::SimTime at = sim::SimTime::zero();
  ChaosEventKind kind = ChaosEventKind::kNodeCrash;
  /// Node index for node-scoped kinds, pod index for pod-scoped kinds.
  std::uint32_t target = 0;
  /// Kind-specific knob: service-time scale for kSlowNode, attack
  /// distance (m) for kPodAttackOn; unused otherwise.
  double magnitude = 0.0;
};

/// What to generate. Counts are events over the [start, end) window;
/// a count of zero disables that fault class entirely.
struct ChaosConfig {
  sim::SimTime start = sim::SimTime::zero();
  sim::SimTime end = sim::SimTime::zero();
  std::size_t nodes = 0;
  std::size_t pods = 0;

  /// Crash/restart pairs: node down for [crash_min, crash_max).
  std::uint32_t crashes = 0;
  sim::Duration crash_min = sim::Duration::from_seconds(2.0);
  sim::Duration crash_max = sim::Duration::from_seconds(10.0);

  /// Detector flap windows; each is force (false-positive) or suppress
  /// (false-negative) with probability 1/2, lasting [flap_min, flap_max).
  std::uint32_t flaps = 0;
  sim::Duration flap_min = sim::Duration::from_seconds(1.0);
  sim::Duration flap_max = sim::Duration::from_seconds(5.0);

  /// Slow-node windows: service times scaled by [slow_scale_min,
  /// slow_scale_max) for [slow_min, slow_max).
  std::uint32_t slow_nodes = 0;
  double slow_scale_min = 2.0;
  double slow_scale_max = 8.0;
  sim::Duration slow_min = sim::Duration::from_seconds(2.0);
  sim::Duration slow_max = sim::Duration::from_seconds(10.0);

  /// Pod-scoped acoustic pulses: attack at [pulse_distance_min,
  /// pulse_distance_max) meters for [pulse_min, pulse_max).
  std::uint32_t pod_pulses = 0;
  double pulse_distance_min = 0.01;
  double pulse_distance_max = 0.05;
  sim::Duration pulse_min = sim::Duration::from_seconds(1.0);
  sim::Duration pulse_max = sim::Duration::from_seconds(5.0);
  double pulse_frequency_hz = 650.0;
  double pulse_spl_air_db = 140.0;

  /// Explicit extra events appended after generation (deterministic
  /// scripted faults, e.g. a fixed node crash or pod attack pulse).
  std::vector<ChaosEvent> scripted;
};

/// Pure: (config, base_seed, index) -> schedule sorted by (at, kind,
/// target). Replaying with the same inputs yields the identical vector.
std::vector<ChaosEvent> make_chaos_schedule(const ChaosConfig& config,
                                            std::uint64_t base_seed,
                                            std::uint64_t index);

/// Lower a schedule onto a run: one TimelineAction per event, firing at
/// the engine's epoch barrier. `engine` and `cluster` must outlive the
/// returned actions.
std::vector<TimelineAction> chaos_actions(const std::vector<ChaosEvent>& events,
                                          ShardedClusterEngine& engine,
                                          Cluster& cluster,
                                          const ChaosConfig& config);

}  // namespace deepnote::cluster::resilience
