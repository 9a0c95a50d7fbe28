#include "switch/policy/auto_hysteresis.hpp"

#include <algorithm>

namespace msw {
namespace {

/// Target duty cycle: fraction of wall time spent inside switchovers.
constexpr double kDuty = 0.004;
/// Longest dwell, however costly the observed switches.
constexpr Duration kCeil = 10 * kSecond;

}  // namespace

AutoHysteresis::AutoHysteresis(AutoHysteresisConfig cfg) : cfg_(cfg) {
  if (cfg_.window == 0) cfg_.window = 1;
  ring_.resize(cfg_.window, 0);
}

void AutoHysteresis::observe(Duration overhead) {
  if (overhead <= 0) return;
  ring_[next_] = overhead;
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
}

Duration AutoHysteresis::overhead_mean() const {
  if (count_ == 0) return 0;
  Duration sum = 0;
  for (std::size_t i = 0; i < count_; ++i) sum += ring_[i];
  return sum / static_cast<Duration>(count_);
}

Duration AutoHysteresis::dwell() const {
  if (count_ == 0) return std::clamp(cfg_.initial, cfg_.floor, kCeil);
  const double d = static_cast<double>(overhead_mean()) / kDuty;
  return std::clamp(static_cast<Duration>(d), cfg_.floor, kCeil);
}

}  // namespace msw
