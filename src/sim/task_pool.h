// Fixed-size worker pool for independent simulation trials.
//
// Every experiment driver in core/ executes a grid of independent,
// deterministically-seeded trials (one virtual-time simulation per
// frequency point / distance row / crash victim). The pool fans those
// closures across a fixed set of host threads; determinism is preserved
// by construction because each trial carries its own seed (see
// sim/trial_runner.h) and results are always delivered in submission
// order — which thread ran a trial, and when, never shows in the output.
//
// jobs == 1 runs every task inline on the calling thread (no workers are
// spawned), so a serial run is the exact reference the parallel runs are
// measured against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deepnote::sim {

/// Worker count for a config that asks for `jobs = 0` ("auto"):
/// $DEEPNOTE_JOBS when set to a positive integer, otherwise
/// hardware_concurrency() (at least 1). A nonzero `requested` wins.
unsigned resolve_jobs(unsigned requested);

class TaskPool {
 public:
  /// jobs = 0 resolves via resolve_jobs() (env DEEPNOTE_JOBS / all cores).
  explicit TaskPool(unsigned jobs = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned jobs() const { return jobs_; }

  /// Run fn(0) .. fn(count-1) across the pool and block until every index
  /// has completed. Indices are claimed dynamically, so uneven trial
  /// costs balance across workers. If tasks throw, the remaining tasks
  /// still run and the exception with the lowest index is rethrown here.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& fn);

  /// Convenience: fan a vector of closures (same semantics).
  void run(const std::vector<std::function<void()>>& tasks);

 private:
  void worker_loop();

  unsigned jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Current batch, valid while active_workers_ > 0. Workers snapshot
  // fn_/count_ under mu_ when they join a batch; indices are claimed
  // lock-free from next_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_workers_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
};

}  // namespace deepnote::sim
