#include "sim/stats.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace deepnote::sim {
namespace {

TEST(LatencyHistogramTest, EmptyQuantilesZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5).ns(), 0);
  EXPECT_EQ(h.mean().ns(), 0);
}

TEST(LatencyHistogramTest, SingleValue) {
  LatencyHistogram h;
  h.add(Duration::from_micros(100));
  EXPECT_EQ(h.count(), 1u);
  // Bucketed: within ~3% of the true value.
  EXPECT_NEAR(h.p50().micros(), 100.0, 3.0);
  EXPECT_NEAR(h.mean().micros(), 100.0, 0.1);
  EXPECT_EQ(h.max_value().micros(), 100.0);
}

TEST(LatencyHistogramTest, QuantilesOfUniformSpread) {
  LatencyHistogram h;
  for (int us = 1; us <= 1000; ++us) {
    h.add(Duration::from_micros(us));
  }
  EXPECT_NEAR(h.p50().micros(), 500.0, 25.0);
  EXPECT_NEAR(h.quantile(0.99).micros(), 990.0, 40.0);
  EXPECT_NEAR(h.quantile(0.0).micros(), 1.0, 0.2);
}

TEST(LatencyHistogramTest, MergeAccumulates) {
  LatencyHistogram a, b;
  a.add(Duration::from_millis(1));
  b.add(Duration::from_millis(100));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.max_value().millis(), 100.0, 0.01);
  EXPECT_NEAR(a.mean().millis(), 50.5, 0.01);
}

TEST(LatencyHistogramTest, QuantileMonotoneInQ) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    h.add(Duration::from_nanos(
        static_cast<std::int64_t>(rng.exponential(1e6))));
  }
  Duration prev = Duration::zero();
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const Duration v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

}  // namespace
}  // namespace deepnote::sim
