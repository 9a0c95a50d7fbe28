// Shared pieces of the benchmark driver: the benchmark message body, clocks,
// quantiles and the result every workload returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace pb {

/// Every benchmark multicast carries this body. Layers append their headers
/// to the tail, so the first bytes identify a benchmark data message at
/// every layer of every stack: the marker tells it apart from control
/// traffic, `id` is the run-wide multicast number and `due` the time the
/// generator scheduled it (simulated µs or steady-clock ns by medium).
struct Body {
  static constexpr std::uint64_t kMarker = 0x9f1b5e2d7c4a3861ULL;
  static constexpr std::size_t kSize = 64;

  std::uint64_t id = 0;
  std::int64_t due = 0;

  msw::Bytes encode() const {
    msw::Bytes b(kSize, 0);
    std::memcpy(b.data(), &kMarker, 8);
    std::memcpy(b.data() + 8, &id, 8);
    std::memcpy(b.data() + 16, &due, 8);
    return b;
  }
  /// False for anything that is not a benchmark data message.
  static bool decode(std::span<const msw::Byte> bytes, Body& out) {
    if (bytes.size() < 24) return false;
    std::uint64_t marker = 0;
    std::memcpy(&marker, bytes.data(), 8);
    if (marker != kMarker) return false;
    std::memcpy(&out.id, bytes.data() + 8, 8);
    std::memcpy(&out.due, bytes.data() + 16, 8);
    return true;
  }
};

/// splitmix64 finalizer: derives independent seeds from the run's seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
/// Monotonic wall clock, the same base the runtime's event loops use.
inline std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }
/// CPU time of the whole process (all threads).
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread.
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

/// Linear-interpolated quantile (q in [0,1]); reorders `v`. 0 when empty.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = static_cast<double>(v[lo]);
  if (lo + 1 >= v.size()) return a;
  const double b = static_cast<double>(*std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(v, 0.5);
}

/// A run's value for a metric sampled per window (or per replay): the
/// worse-side decile, the 90th percentile of a cost or the 10th of a rate.
/// On a shared host most windows run at the host's sustained speed; the
/// better side is set by bursts of extra speed whose share varies from run
/// to run, so the worse-side decile repeats across runs better than the
/// median, while a few stalled windows still cannot move it.
inline double worse_decile(std::vector<double> v, bool higher_is_better) {
  return quantile(v, higher_is_better ? 0.1 : 0.9);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `e2e` holds the end-to-end metrics of the
/// run, `layers` the per-layer bill (traced runs only); `notes` are the
/// human-readable lines printed above the result.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test only: run sim-paper with SP's injected drain fault.
  bool inject_sp_fault = false;
  /// Directory the traced run writes its sampled spans to (none if empty).
  std::string out_dir;
};

}  // namespace pb
