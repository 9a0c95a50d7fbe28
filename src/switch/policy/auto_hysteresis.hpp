// Auto-tuned hysteresis: dwell time derived from observed switch cost.
//
// The paper's section-7 fix for oscillation is a hand-tuned minimum dwell
// between switches. The right dwell, though, is a function of what a switch
// actually costs *right now*: SP's overhead is dominated by draining the
// protocol being switched away from, so it varies with load, loss, and
// group size (the paper's "unexpected hitch"). This controller keeps a
// small ring of the most recent observed switch-overhead spans (a member's
// PREPARE-to-install windows) and sets
//
//   dwell = clamp(overhead_mean / duty, floor, 10 s)
//
// where `duty` = 0.4% is the fraction of time the group is allowed to
// spend switching (a 31 ms switch then forbids another for ~8 s, and a
// cheap 3 ms switch only for ~0.75 s). Costly switches — long drains
// under loss or heavy load — automatically stretch the guard exactly when
// flapping would hurt most; until the first switch has been observed the
// configured initial dwell applies.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/time.hpp"

namespace msw {

struct AutoHysteresisConfig {
  /// Dwell used before any switch overhead has been observed.
  Duration initial = 1 * kSecond;
  Duration floor = 300 * kMillisecond;
  /// Observed-overhead ring capacity (most recent spans win).
  std::size_t window = 8;
};

class AutoHysteresis {
 public:
  explicit AutoHysteresis(AutoHysteresisConfig cfg = {});

  /// Record one completed switch's overhead span (PREPARE -> install).
  void observe(Duration overhead);

  /// Current minimum time between switches.
  Duration dwell() const;

  /// Mean of the retained overhead spans (0 before the first observation).
  Duration overhead_mean() const;

  std::size_t observed() const { return count_; }

 private:
  AutoHysteresisConfig cfg_;
  std::vector<Duration> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
};

}  // namespace msw
