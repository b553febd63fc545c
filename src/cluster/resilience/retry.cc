#include "cluster/resilience/retry.h"

#include <algorithm>

namespace deepnote::cluster::resilience {

const char* backoff_kind_name(BackoffKind kind) {
  switch (kind) {
    case BackoffKind::kFixed: return "fixed";
    case BackoffKind::kExponential: return "exponential";
  }
  return "?";
}

sim::Duration backoff_delay(const BackoffConfig& config, std::uint32_t attempt,
                            std::uint64_t jitter_word) {
  if (attempt == 0) attempt = 1;
  const double base_s = config.base.seconds();
  const double cap_s = config.cap.ns() > 0 ? config.cap.seconds() : base_s;
  double delay_s = base_s;
  switch (config.kind) {
    case BackoffKind::kFixed:
      break;
    case BackoffKind::kExponential: {
      // Once base * 2^k crosses the cap the doubling stops mattering;
      // shifting by more than 62 would overflow, so clamp the exponent.
      const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 62);
      delay_s = base_s * static_cast<double>(std::uint64_t{1} << shift);
      break;
    }
  }
  delay_s = std::min(delay_s, cap_s);
  if (config.jitter > 0.0) {
    // Same u construction as sim::Rng::next_double: the top 53 bits.
    const double u =
        static_cast<double>(jitter_word >> 11) * 0x1.0p-53;
    delay_s *= 1.0 - config.jitter + config.jitter * u;
  }
  // Full jitter can land on (or round to) zero; a zero delay would let a
  // retry re-enter the very round that shed it and livelock the engine's
  // closed-loop stepping, so floor at one simulated nanosecond.
  return sim::Duration::from_nanos(
      std::max<std::int64_t>(sim::Duration::from_seconds(delay_s).ns(), 1));
}

}  // namespace deepnote::cluster::resilience
