// Clock boundary for the telemetry plane.
//
// Tracers stamp events through this interface so the same layer code can
// run under the deterministic simulator (timestamps are simulated
// microseconds, byte-reproducible for a seed) or under the real-transport
// runtime (timestamps are monotonic wall-clock microseconds since runtime
// start).
#pragma once

#include "sim/time.hpp"

namespace msw {

class TelemetryClock {
 public:
  virtual ~TelemetryClock() = default;

  /// Current time in microseconds. Sim domain: simulated time since
  /// simulation start. Wall domain: monotonic time since runtime start.
  virtual Time telemetry_now() const = 0;
};

}  // namespace msw
