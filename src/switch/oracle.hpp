// The switching oracle.
//
// The paper deliberately leaves *when* to switch out of scope ("we assume
// that some kind of oracle decides when a switch is necessary") but its
// section 7 discusses the two pitfalls of a naive oracle: switching too
// aggressively causes oscillation, and hysteresis fixes it at the cost of
// sometimes lingering on the slower protocol. These implementations
// reproduce that discussion (benchmark E5).
//
// The oracle is consulted by the switching layer whenever a NORMAL token
// visits this member; returning true makes this member the initiator of a
// switch away from `view.active_protocol`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace msw {

class Services;

/// Snapshot of local conditions handed to the oracle.
struct OracleView {
  NodeId self{};
  /// Index (0/1) of the currently active protocol.
  int active_protocol = 0;
  Time now = 0;
  /// Distinct senders whose messages were delivered here within the
  /// measurement window (the load signal of Figure 2's x-axis). Pruned at
  /// consult time against `now`, so a slow token rotation never widens the
  /// window the count covers.
  std::size_t active_senders = 0;
  Time since_last_switch = 0;
  /// Duration of the most recent full NORMAL-token ring rotation observed
  /// at this member, less the pacing holds on the way (0 until two
  /// consecutive NORMAL visits have been seen since the last switch). A
  /// live proxy for token-protocol latency: the SP control token crosses
  /// the same ring the token protocol would use, whichever protocol
  /// carries the data.
  Duration normal_rotation = 0;
  /// PREPARE-to-install span of this member's most recent local switchover
  /// (0 before the first) — the observed switch-overhead signal the
  /// auto-hysteresis controller tunes dwell time from.
  Duration last_switch_overhead = 0;
  /// Completed local switchovers at this member, so an oracle can detect
  /// "a new switch finished since my last consult" without extra wiring.
  std::uint64_t switches_completed = 0;
};

class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual bool should_switch(const OracleView& view) = 0;

  /// Wire the oracle to its process. SwitchLayer calls this once from
  /// start(), after the stack's services (timers, metrics, tracer) are
  /// live; policy oracles bind their telemetry readers and arm sampling
  /// timers here. The default is a no-op so threshold oracles stay plain.
  virtual void attach(Services& services) { (void)services; }
};

/// Never switches on its own; tests and examples trigger switches through
/// SwitchLayer::request_switch().
class ManualOracle : public Oracle {
 public:
  bool should_switch(const OracleView&) override { return false; }
};

/// Single-threshold oracle: protocol 0 (e.g. sequencer) below the
/// threshold, protocol 1 (e.g. token) at or above it. With load sitting
/// near the threshold this oracle oscillates — the failure mode the paper
/// reports when "switching too aggressively".
class ThresholdOracle : public Oracle {
 public:
  explicit ThresholdOracle(std::size_t threshold) : threshold_(threshold) {}
  bool should_switch(const OracleView& view) override;

 private:
  std::size_t threshold_;
};

/// Dual-threshold oracle with a minimum dwell time: switch 0 -> 1 only at
/// or above `high`, 1 -> 0 only at or below `low`, and never within
/// `min_dwell` of the previous switch. The paper's hysteresis fix.
class HysteresisOracle : public Oracle {
 public:
  HysteresisOracle(std::size_t low, std::size_t high, Duration min_dwell)
      : low_(low), high_(high), min_dwell_(min_dwell) {}
  bool should_switch(const OracleView& view) override;

 private:
  std::size_t low_;
  std::size_t high_;
  Duration min_dwell_;
};

using OracleFactory = std::function<std::unique_ptr<Oracle>(NodeId self)>;

}  // namespace msw
