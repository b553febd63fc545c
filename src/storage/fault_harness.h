// Crash-consistency harness: exhaustive fault-schedule exploration.
//
// A CrashWorkload runs a storage workload against a FaultyDisk it owns,
// then checks durable-state invariants after the simulated crash
// (remount + fsck for extfs, WAL replay for kvdb, surviving-mirror image
// for RAID — see fault_workloads.h for the built-ins).
//
// The explorer first runs the workload benignly to learn its device
// write count W, then enumerates every (cut point, fault variant)
// schedule — littlefs-style: "re-run the workload with a power cut at
// every write boundary" — fanned across the task pool. Schedules are
// pure functions of (base seed, schedule index):
//
//     index = cut * 4 + variant        (variant: 0 clean, 1 torn,
//                                       2 reorder, 3 eio-burst)
//     plan.seed = sim::trial_seed(base_seed, index)
//
// so a failure logged as (seed, index) replays exactly with
// replay_schedule(), and shrink() reduces it to a minimal failing
// schedule (simplest variant, earliest cut).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/faulty_disk.h"

namespace deepnote::storage {

/// Outcome of one post-crash consistency check.
struct CheckResult {
  bool passed = true;
  std::string detail;  ///< human-readable failure description

  static CheckResult ok() { return {}; }
  static CheckResult fail(std::string why) {
    return CheckResult{false, std::move(why)};
  }
};

/// One storage workload under test. Implementations own their devices:
/// run() builds the stack (format healthy, then wrap the device in a
/// FaultyDisk armed with `plan`), executes the workload tolerating
/// errors, and check() inspects only what the crash left durable.
class CrashWorkload {
 public:
  virtual ~CrashWorkload() = default;

  /// Execute the workload once with `plan` armed on the faulted device.
  virtual void run(const FaultPlan& plan) = 0;
  /// Write attempts the faulted device saw during the last run().
  virtual std::uint64_t faulted_writes() const = 0;
  /// Post-crash invariants over the durable state.
  virtual CheckResult check() = 0;
};

/// Workloads are re-created per schedule (trials share no state).
using WorkloadFactory = std::function<std::unique_ptr<CrashWorkload>()>;

enum class FaultVariant : std::uint8_t {
  kClean = 0,    ///< power cut, whole write lost
  kTorn = 1,     ///< power cut, sector-prefix of the write persists
  kReorder = 2,  ///< power cut under a volatile write cache
  kEio = 3,      ///< transient EIO burst, no cut
};

inline constexpr std::uint32_t kNumFaultVariants = 4;

const char* fault_variant_name(FaultVariant v);

/// A fully determined schedule; pure function of (base seed, index).
struct FaultSchedule {
  std::uint64_t base_seed = 0;
  std::uint64_t index = 0;
  std::uint64_t cut_write = 0;  ///< index / kNumFaultVariants
  FaultVariant variant = FaultVariant::kClean;

  FaultPlan plan(std::uint32_t cache_window) const;
  /// e.g. "schedule 37 (seed 0x5eed): torn cut at write 9"
  std::string describe() const;
};

/// Decode `index` under `base_seed` (no workload knowledge needed).
FaultSchedule schedule_at(std::uint64_t base_seed, std::uint64_t index);

struct ExploreOptions {
  std::uint64_t seed = 0x5eedull;
  bool torn_writes = true;   ///< include FaultVariant::kTorn
  bool reorder = true;       ///< include FaultVariant::kReorder
  bool eio_bursts = true;    ///< include FaultVariant::kEio
  std::uint32_t cache_window = 8;  ///< reorder-variant cache size
  unsigned jobs = 0;  ///< task-pool width; 0 = $DEEPNOTE_JOBS / all cores
};

struct ScheduleFailure {
  FaultSchedule schedule;
  std::string detail;
};

struct ExploreReport {
  std::uint64_t write_count = 0;     ///< writes in the benign run
  std::uint64_t schedules_run = 0;
  std::string benign_failure;        ///< non-empty: oracle broken, no crash
  std::vector<ScheduleFailure> failures;

  bool passed() const { return benign_failure.empty() && failures.empty(); }
  std::string summary() const;
};

/// Run the workload benignly to size the schedule space, then every
/// enabled (cut, variant) schedule in parallel on the task pool.
ExploreReport explore(const WorkloadFactory& factory,
                      const ExploreOptions& options = {});

/// Re-run one schedule from its logged (seed, index) pair.
CheckResult replay_schedule(const WorkloadFactory& factory,
                            std::uint64_t base_seed, std::uint64_t index,
                            std::uint32_t cache_window = 8,
                            FaultSchedule* schedule_out = nullptr);

/// Reduce a failing schedule: first simplify the variant
/// (reorder/eio -> torn -> clean cut), then find the earliest failing
/// cut under that variant. Returns the minimal schedule (always fails
/// when replayed; falls back to the input if nothing simpler fails).
FaultSchedule shrink(const WorkloadFactory& factory,
                     const FaultSchedule& failing,
                     std::uint32_t cache_window = 8);

}  // namespace deepnote::storage
