#include "structure/resonator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace deepnote::structure {
namespace {

TEST(ModeResponseTest, PeakAtResonanceEqualsConfiguredGain) {
  const Mode m{.f0_hz = 650.0, .q = 5.0, .peak_gain_db = 14.0, .label = {}};
  EXPECT_NEAR(mode_response_db(m, 650.0), 14.0, 1e-9);
}

TEST(ModeResponseTest, StaticResponseIsPeakMinusQ) {
  // Far below resonance, |H| -> 1, i.e. peak_gain - 20 log10(Q).
  const Mode m{.f0_hz = 1000.0, .q = 10.0, .peak_gain_db = 20.0, .label = {}};
  EXPECT_NEAR(mode_response_db(m, 1.0), 20.0 - 20.0, 0.01);
}

TEST(ModeResponseTest, HighFrequencyRollsOffTwelveDbPerOctave) {
  const Mode m{.f0_hz = 500.0, .q = 5.0, .peak_gain_db = 10.0, .label = {}};
  const double at_8k = mode_response_db(m, 8000.0);
  const double at_16k = mode_response_db(m, 16000.0);
  EXPECT_NEAR(at_8k - at_16k, 12.0, 0.3);
}

TEST(ModeResponseTest, HigherQNarrowerPeak) {
  const Mode narrow{
      .f0_hz = 650.0, .q = 10.0, .peak_gain_db = 10.0, .label = {}};
  const Mode broad{.f0_hz = 650.0, .q = 2.0, .peak_gain_db = 10.0, .label = {}};
  // Equal at the peak...
  EXPECT_NEAR(mode_response_db(narrow, 650.0),
              mode_response_db(broad, 650.0), 1e-9);
  // ...but the narrow mode falls off faster off-resonance.
  EXPECT_LT(mode_response_db(narrow, 850.0), mode_response_db(broad, 850.0));
}

TEST(ModeResponseTest, QClampedAtHalf) {
  const Mode m{.f0_hz = 100.0, .q = 0.01, .peak_gain_db = 0.0, .label = {}};
  // Must not blow up / produce NaN.
  EXPECT_TRUE(std::isfinite(mode_response_db(m, 100.0)));
}

TEST(ModeResponseTest, InvalidFrequencyThrows) {
  const Mode m{.f0_hz = 0.0, .q = 5.0, .peak_gain_db = 0.0, .label = {}};
  EXPECT_THROW(mode_response_db(m, 100.0), std::invalid_argument);
}

TEST(ResonatorBankTest, EmptyBankIsSilent) {
  ResonatorBank bank;
  EXPECT_TRUE(bank.empty());
  EXPECT_LT(bank.response_db(650.0), -300.0);
}

TEST(ResonatorBankTest, SingleModeMatchesModeResponse) {
  const Mode m{.f0_hz = 650.0, .q = 4.0, .peak_gain_db = 12.0, .label = {}};
  ResonatorBank bank({m});
  for (double f : {100.0, 650.0, 2000.0}) {
    EXPECT_NEAR(bank.response_db(f), mode_response_db(m, f), 1e-9);
  }
}

TEST(ResonatorBankTest, OverlappingModesReinforce) {
  const Mode m{.f0_hz = 650.0, .q = 4.0, .peak_gain_db = 12.0, .label = {}};
  ResonatorBank one({m});
  ResonatorBank two({m, m});
  // Power sum of two equal modes: +3 dB.
  EXPECT_NEAR(two.response_db(650.0) - one.response_db(650.0), 3.01, 0.01);
}

TEST(ResonatorBankTest, PeakFrequencyFindsStrongestMode) {
  ResonatorBank bank;
  bank.add_mode(Mode{.f0_hz = 400.0, .q = 6.0, .peak_gain_db = 8.0, .label = {}});
  bank.add_mode(Mode{.f0_hz = 900.0, .q = 6.0, .peak_gain_db = 15.0, .label = {}});
  bank.add_mode(Mode{.f0_hz = 1500.0, .q = 6.0, .peak_gain_db = 5.0, .label = {}});
  const double peak = bank.peak_frequency_hz(100.0, 4000.0);
  EXPECT_NEAR(peak, 900.0, 20.0);
}

class BankMonotoneTailTest : public ::testing::TestWithParam<double> {};

TEST_P(BankMonotoneTailTest, ResponseDecaysAboveAllModes) {
  const double q = GetParam();
  ResonatorBank bank;
  bank.add_mode(
      Mode{.f0_hz = 500.0, .q = q, .peak_gain_db = 10.0, .label = {}});
  bank.add_mode(
      Mode{.f0_hz = 800.0, .q = q, .peak_gain_db = 10.0, .label = {}});
  double prev = bank.response_db(2000.0);
  for (double f = 2500.0; f <= 20000.0; f += 500.0) {
    const double r = bank.response_db(f);
    EXPECT_LT(r, prev) << "f=" << f;
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Qs, BankMonotoneTailTest,
                         ::testing::Values(1.0, 3.0, 8.0));

}  // namespace
}  // namespace deepnote::structure
