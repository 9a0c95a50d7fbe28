// Workload driver for experiments and integration tests.
//
// Reproduces the shape of the paper's section-7 experiment: a subgroup of
// k active senders each multicasting at a fixed rate; latency is measured
// from application Send to each application Deliver, over the steady-state
// window (after warmup, before the tail drain).
#pragma once

#include <cstdint>

#include "net/stats.hpp"
#include "sim/simulation.hpp"
#include "stack/group.hpp"

namespace msw {

struct WorkloadConfig {
  /// Members 0..senders-1 multicast; the rest only receive.
  std::size_t senders = 1;
  /// Messages per second per active sender (paper: 50).
  double rate_per_sender = 50.0;
  /// Total send phase length.
  Duration duration = 5 * kSecond;
  /// Deliveries of messages sent before this are excluded from stats.
  Duration warmup = 500 * kMillisecond;
  /// Extra simulated time after the send phase to drain in-flight traffic.
  Duration drain = 2 * kSecond;
  /// Application payload size in bytes.
  std::size_t body_size = 64;
  /// Poisson arrivals (exponential inter-send gaps at the same mean rate)
  /// instead of a fixed period. Application traffic is bursty; the paper's
  /// queueing behaviour at the sequencer assumes it.
  bool poisson = false;
};

struct WorkloadResult {
  /// Send-to-deliver latency over all (message, receiver) pairs in the
  /// steady-state window, in milliseconds.
  Summary latency_ms;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;  // across all members
  /// Messages sent in-window but never delivered somewhere by the end of
  /// the drain (0 for a correct reliable protocol).
  std::uint64_t missing_deliveries = 0;
};

/// Drives the workload on a started Group and returns latency statistics.
/// The group's TraceCapture is cleared first.
WorkloadResult run_workload(Simulation& sim, Group& group, const WorkloadConfig& cfg);

/// Compute per-delivery latencies from a captured trace (send time of the
/// message to each deliver time), restricted to messages sent within
/// [window_begin, window_end]. Also reports deliveries-per-message gaps
/// against `expected_receivers`.
struct TraceLatency {
  Summary latency_ms;
  std::uint64_t missing_deliveries = 0;
};
TraceLatency trace_latency(const Trace& tr, Time window_begin, Time window_end,
                           std::size_t expected_receivers);

}  // namespace msw
