// Latency histogram used by the workload runners and experiment harness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace deepnote::sim {

/// Log-bucketed latency histogram (HdrHistogram-style, base-10 sub-bucketed).
/// Records values in nanoseconds; quantiles are approximate to bucket width
/// (< 2% relative error with 90 buckets/decade).
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(Duration d) { add_ns(d.ns()); }
  void add_ns(std::int64_t ns) {
    // Exact-match memo of the last bucket lookup: latency samples repeat
    // heavily (identical device service times, zero queue waits), and a
    // repeat skips the log10 in bucket_for while landing in the same
    // bucket by construction.
    if (ns != memo_ns_) {
      memo_ns_ = ns;
      memo_bucket_ = bucket_for(ns);
    }
    ++buckets_[static_cast<std::size_t>(memo_bucket_)];
    ++total_;
    max_ns_ = std::max(max_ns_, ns);
    sum_ns_ += static_cast<double>(ns);
  }
  void merge(const LatencyHistogram& other);
  void reset();

  std::size_t count() const { return total_; }
  /// q in [0,1]; returns the approximate q-quantile. Zero when empty.
  Duration quantile(double q) const;
  Duration p50() const { return quantile(0.50); }
  Duration p99() const { return quantile(0.99); }
  Duration max_value() const { return Duration{max_ns_}; }
  Duration mean() const;

 private:
  static constexpr int kDecades = 12;            // 1 ns .. ~1000 s
  static constexpr int kBucketsPerDecade = 90;   // ~2.6% bucket width
  static constexpr int kNumBuckets = kDecades * kBucketsPerDecade;

  static int bucket_for(std::int64_t ns);
  static std::int64_t bucket_mid_ns(int bucket);

  std::vector<std::uint64_t> buckets_;
  std::size_t total_ = 0;
  std::int64_t max_ns_ = 0;
  double sum_ns_ = 0.0;
  // bucket_for(-1) clamps to bucket 0, so this seed pair is consistent.
  std::int64_t memo_ns_ = -1;
  int memo_bucket_ = 0;
};

}  // namespace deepnote::sim
