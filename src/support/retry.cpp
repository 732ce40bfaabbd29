#include "src/support/retry.hpp"

#include <algorithm>

#include "src/support/hash.hpp"

namespace tydi::support {

double retry_jitter(std::uint64_t seed, int attempt) {
  const std::uint64_t h =
      splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(attempt)));
  // Squeezed into [0.5, 1.0) so the backoff never collapses below half its
  // nominal value.
  return 0.5 + unit_interval(h) / 2.0;
}

bool Retry::next_delay_ms(double server_hint_ms, double& delay_ms) {
  ++attempts_;
  const int budget = std::max(1, policy_.max_attempts);
  if (attempts_ >= budget) return false;
  double backoff = policy_.base_ms;
  for (int i = 1; i < attempts_; ++i) backoff *= policy_.multiplier;
  backoff = std::min(backoff, policy_.max_backoff_ms);
  backoff *= retry_jitter(policy_.seed, attempts_);
  delay_ms = std::max(backoff, server_hint_ms);
  return true;
}

}  // namespace tydi::support
