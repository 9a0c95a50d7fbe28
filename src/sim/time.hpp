// Simulated time.
//
// All simulated clocks are 64-bit microsecond counts from simulation start.
// Strong aliases plus literal-style helpers keep unit mistakes visible at
// call sites (e.g. `5 * kMillisecond`).
#pragma once

#include <cstdint>

namespace msw {

/// Absolute simulated time in microseconds since simulation start.
using Time = std::int64_t;

/// Relative simulated time in microseconds.
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000;
inline constexpr Duration kSecond = 1000 * 1000;

constexpr double to_ms(Duration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_sec(Duration d) { return static_cast<double>(d) / 1e6; }

}  // namespace msw
