#include "storage/fault_harness.h"

#include <sstream>

#include "sim/trial_runner.h"

namespace deepnote::storage {

const char* fault_variant_name(FaultVariant v) {
  switch (v) {
    case FaultVariant::kClean: return "clean cut";
    case FaultVariant::kTorn: return "torn cut";
    case FaultVariant::kReorder: return "reordered-cache cut";
    case FaultVariant::kEio: return "eio burst";
  }
  return "variant?";
}

FaultSchedule schedule_at(std::uint64_t base_seed, std::uint64_t index) {
  FaultSchedule s;
  s.base_seed = base_seed;
  s.index = index;
  s.cut_write = index / kNumFaultVariants;
  s.variant = static_cast<FaultVariant>(index % kNumFaultVariants);
  return s;
}

FaultPlan FaultSchedule::plan(std::uint32_t cache_window) const {
  FaultPlan p;
  p.seed = sim::trial_seed(base_seed, index);
  switch (variant) {
    case FaultVariant::kClean:
      p.cut_at_write = cut_write;
      break;
    case FaultVariant::kTorn:
      p.cut_at_write = cut_write;
      p.tear_cut_write = true;
      break;
    case FaultVariant::kReorder:
      p.cut_at_write = cut_write;
      p.cache_window = cache_window;
      break;
    case FaultVariant::kEio:
      // One transient burst starting at this write; length seeded so
      // adjacent indices probe different burst widths.
      p.eio_start = cut_write;
      p.eio_len = 1 + p.seed % 5;
      p.eio_period = 0;
      p.eio_ops = fault_ops::kWrites | fault_ops::kFlushes;
      break;
  }
  return p;
}

std::string FaultSchedule::describe() const {
  std::ostringstream os;
  os << "schedule " << index << " (seed 0x" << std::hex << base_seed
     << std::dec << "): " << fault_variant_name(variant) << " at write "
     << cut_write;
  return os.str();
}

std::string ExploreReport::summary() const {
  std::ostringstream os;
  os << "explored " << schedules_run << " schedules over " << write_count
     << " writes: ";
  if (!benign_failure.empty()) {
    os << "benign run failed: " << benign_failure;
    return os.str();
  }
  if (failures.empty()) {
    os << "all consistent";
  } else {
    os << failures.size() << " failing; first: "
       << failures.front().schedule.describe() << " — "
       << failures.front().detail;
  }
  return os.str();
}

namespace {

struct TrialOutcome {
  bool passed = true;
  std::string detail;
};

bool variant_enabled(FaultVariant v, const ExploreOptions& options) {
  switch (v) {
    case FaultVariant::kClean: return true;
    case FaultVariant::kTorn: return options.torn_writes;
    case FaultVariant::kReorder: return options.reorder;
    case FaultVariant::kEio: return options.eio_bursts;
  }
  return false;
}

}  // namespace

ExploreReport explore(const WorkloadFactory& factory,
                      const ExploreOptions& options) {
  ExploreReport report;

  // Benign pass: size the schedule space and prove the oracle itself
  // holds without faults (a broken workload must not masquerade as a
  // crash-consistency bug).
  {
    auto benign = factory();
    benign->run(FaultPlan{});
    report.write_count = benign->faulted_writes();
    CheckResult c = benign->check();
    if (!c.passed) {
      report.benign_failure = c.detail;
      return report;
    }
  }

  std::vector<std::uint64_t> indices;
  indices.reserve(report.write_count * kNumFaultVariants);
  for (std::uint64_t cut = 0; cut < report.write_count; ++cut) {
    for (std::uint32_t v = 0; v < kNumFaultVariants; ++v) {
      if (variant_enabled(static_cast<FaultVariant>(v), options)) {
        indices.push_back(cut * kNumFaultVariants + v);
      }
    }
  }
  report.schedules_run = indices.size();

  // Embarrassingly parallel: every schedule builds its own workload.
  std::vector<TrialOutcome> outcomes = sim::run_trials<TrialOutcome>(
      indices.size(), options.jobs, [&](std::size_t i) {
        const FaultSchedule schedule =
            schedule_at(options.seed, indices[i]);
        auto workload = factory();
        workload->run(schedule.plan(options.cache_window));
        CheckResult c = workload->check();
        return TrialOutcome{c.passed, std::move(c.detail)};
      });

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].passed) {
      report.failures.push_back(ScheduleFailure{
          schedule_at(options.seed, indices[i]),
          std::move(outcomes[i].detail)});
    }
  }
  return report;
}

CheckResult replay_schedule(const WorkloadFactory& factory,
                            std::uint64_t base_seed, std::uint64_t index,
                            std::uint32_t cache_window,
                            FaultSchedule* schedule_out) {
  const FaultSchedule schedule = schedule_at(base_seed, index);
  if (schedule_out) *schedule_out = schedule;
  auto workload = factory();
  workload->run(schedule.plan(cache_window));
  return workload->check();
}

FaultSchedule shrink(const WorkloadFactory& factory,
                     const FaultSchedule& failing,
                     std::uint32_t cache_window) {
  auto still_fails = [&](const FaultSchedule& s) {
    auto workload = factory();
    workload->run(s.plan(cache_window));
    return !workload->check().passed;
  };
  auto at = [&](std::uint64_t cut, FaultVariant v) {
    return schedule_at(failing.base_seed,
                       cut * kNumFaultVariants +
                           static_cast<std::uint64_t>(v));
  };

  // 1. Simplify the fault variant at the same cut point.
  FaultSchedule best = failing;
  for (FaultVariant v : {FaultVariant::kClean, FaultVariant::kTorn}) {
    if (v == best.variant) break;
    const FaultSchedule candidate = at(best.cut_write, v);
    if (still_fails(candidate)) {
      best = candidate;
      break;
    }
  }
  // 2. Earliest failing cut under the simplified variant.
  for (std::uint64_t cut = 0; cut < best.cut_write; ++cut) {
    const FaultSchedule candidate = at(cut, best.variant);
    if (still_fails(candidate)) {
      best = candidate;
      break;
    }
  }
  return best;
}

}  // namespace deepnote::storage
