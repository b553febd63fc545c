#include "sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace deepnote::sim {

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

int LatencyHistogram::bucket_for(std::int64_t ns) {
  if (ns < 1) ns = 1;
  const double lg = std::log10(static_cast<double>(ns));
  int b = static_cast<int>(lg * kBucketsPerDecade);
  return std::clamp(b, 0, kNumBuckets - 1);
}

std::int64_t LatencyHistogram::bucket_mid_ns(int bucket) {
  const double lg = (static_cast<double>(bucket) + 0.5) /
                    static_cast<double>(kBucketsPerDecade);
  return static_cast<std::int64_t>(std::pow(10.0, lg));
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  total_ += other.total_;
  max_ns_ = std::max(max_ns_, other.max_ns_);
  sum_ns_ += other.sum_ns_;
}

void LatencyHistogram::reset() {
  // In place (not `*this = {}`): reset runs on warmed hot-path state and
  // must not reallocate the bucket vector.
  std::fill(buckets_.begin(), buckets_.end(), 0);
  total_ = 0;
  max_ns_ = 0;
  sum_ns_ = 0.0;
}

Duration LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return Duration::zero();
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[static_cast<std::size_t>(b)];
    if (seen > target) return Duration{bucket_mid_ns(b)};
  }
  return Duration{max_ns_};
}

Duration LatencyHistogram::mean() const {
  if (total_ == 0) return Duration::zero();
  return Duration{
      static_cast<std::int64_t>(sum_ns_ / static_cast<double>(total_))};
}

}  // namespace deepnote::sim
