// PolicyOracle: the telemetry-driven adaptive switch policy engine.
//
// The paper assumes "some kind of oracle decides when a switch is
// necessary" and benchmark E5 showed what a naive one costs: the
// single-signal ThresholdOracle oscillates and the HysteresisOracle fixes
// it only after a human picks low/high/min_dwell for one specific workload.
// This oracle replaces the lone sender count with the node's whole signal
// surface (SignalPlane vectors: rates, queue depths, NACK/retransmission
// pressure, measured ring rotation) and replaces the hand-tuned dwell with
// the AutoHysteresis controller fed by observed switch-overhead spans.
//
// Decision pipeline, run on every NORMAL-token consult:
//   1. push consult-time signals (sender count, measured rotation) into the
//      plane and feed any newly completed switch's overhead span to the
//      dwell controller;
//   2. dwell veto — never switch within the auto-tuned dwell of the last
//      switch (the paper's oscillation guard, now self-calibrating);
//   3. churn veto — never *initiate* a switch while the SP control ring is
//      itself retransmitting tokens (a drain started under loss is exactly
//      the "unexpected hitch" the paper warns about);
//   4. score both protocols in expected delivery latency (µs) from the
//      windowed signal vector, and switch only when the active one's score
//      exceeds the alternative's by the configured margin.
//
// Both scores come from live signals and fixed priors: M/M/1 queueing on
// the measured order rate for the sequencer; the measured NORMAL-token
// rotation for the token ring (the SP control token crosses the same ring
// the token protocol would use, whichever protocol carries data). Slot 0
// of the switch layer is the sequencer and slot 1 the token ring, as
// make_hybrid_total_order_factory builds them.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "switch/oracle.hpp"
#include "switch/policy/auto_hysteresis.hpp"
#include "switch/policy/signal_plane.hpp"
#include "telemetry/metrics.hpp"

namespace msw {

/// The two protocols the policy engine ranks; the value is the switch
/// layer's protocol index.
enum class ProtocolKind : std::uint8_t {
  kSequencer = 0,
  kToken = 1,
};
inline constexpr std::size_t kProtocolKinds = 2;

std::string_view to_string(ProtocolKind k);

/// Calibrated cost-model priors, in microseconds of expected delivery
/// latency. They match bench/calibration.hpp's era testbed (10-node group,
/// 1 ms hops, ~3 ms sequencer service time).
///
/// Scores deliberately use only signals that keep updating whichever
/// protocol is active (delivery rate, SP ring rotation, sender count) plus
/// the active side's own backlog. Per-layer NACK/retransmission rates are
/// NOT scored: a protocol's repair chatter only accrues while it is
/// active, and penalising the active side for signals the inactive side
/// cannot emit is a built-in oscillator (the active protocol always looks
/// worse than the idle one).
namespace policy_priors {
// Sequencer: two hops + ordering work, queueing as an M/M/1 server.
inline constexpr double kSeqBaseUs = 7000;     // low-load latency (~2 hops + order)
inline constexpr double kSeqServiceUs = 3000;  // per-message sequencer service time
inline constexpr double kRhoCap = 0.95;        // keeps the queue term finite
/// Drain cost per locally pending (unsequenced) order request. The
/// utilisation term alone cannot see saturation — once the sequencer is
/// the bottleneck, the *delivered* rate is clamped at capacity and the
/// measured rho stays politely below 1 while queues diverge. The
/// sender-side backlog (seq.pending) is the divergence detector.
inline constexpr double kSeqBacklogUs = 3000;

// Token ring: expected wait is half a rotation plus per-visit processing.
inline constexpr double kTokenBaseUs = 2000;  // deliver hop + token bookkeeping
inline constexpr double kTokenHopUs = 1800;   // per-member rotation prior (unmeasured)
}  // namespace policy_priors

struct PolicyConfig {
  SignalPlaneConfig signals;
  /// Aggregation span for windowed signal vectors at decision time.
  Duration window = 2 * kSecond;
  /// The active protocol must score worse than `margin` times the
  /// alternative before a switch is initiated. This is the score-space
  /// analogue of the hysteresis deadband: at mid load the two protocols
  /// genuinely cost within ~30% of each other and signal noise (a pending
  /// blip, one slow rotation) alternately favours either side — the band
  /// must be wider than that noise or the engine ping-pongs every dwell.
  double switch_margin = 1.5;
  /// Absolute score gap (µs) the switch must clear on top of the relative
  /// margin. A switch has a fixed disruption cost (PREPARE/FLUSH rotations,
  /// drain stall) regardless of how small the modelled per-message gain is,
  /// and at low absolute scores a relative margin alone is thinner than
  /// signal noise — a few-ms estimation blip on either side would trigger a
  /// real multi-rotation drain to chase a phantom gain.
  double switch_cost_us = 4000;
  AutoHysteresisConfig dwell;
};

class PolicyOracle : public Oracle {
 public:
  explicit PolicyOracle(PolicyConfig cfg = {}, SignalPlane::ExternalSource ext = {});

  /// Bind the signal plane to the process (metrics reads + sampling timer)
  /// and register the policy's own observability gauges.
  void attach(Services& services) override;

  bool should_switch(const OracleView& view) override;

  /// Expected delivery latency (µs) of `kind` under signal vector `s` for a
  /// `members`-sized group. Pure function of the priors and the signals;
  /// exposed for tests. `net_inflation` scales the sequencer's base term by
  /// the observed network slowdown (measured ring rotation / calibrated
  /// prior) so that the prior-scored sequencer degrades in step with the
  /// live-measured ring — without it, a jitter burst inflates only the
  /// protocol that is actually being measured and the engine switches
  /// toward whichever side is blind.
  double score_us(ProtocolKind kind, const SignalVector& s, std::size_t members,
                  double net_inflation = 1.0) const;

  const SignalPlane& signals() const { return signals_; }
  SignalPlane& signals() { return signals_; }
  const AutoHysteresis& hysteresis() const { return hysteresis_; }
  Duration dwell() const { return hysteresis_.dwell(); }

  struct Stats {
    std::uint64_t consults = 0;
    std::uint64_t vetoed_dwell = 0;
    std::uint64_t vetoed_churn = 0;
    std::uint64_t switch_decisions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  PolicyConfig cfg_;
  SignalPlane signals_;
  AutoHysteresis hysteresis_;
  Services* services_ = nullptr;
  std::size_t members_ = 0;
  std::uint64_t seen_switches_ = 0;
  Stats stats_;

  // Observability (null without a metrics registry).
  std::array<MetricsRegistry::Gauge*, kProtocolKinds> g_score_{};
  MetricsRegistry::Gauge* g_dwell_ = nullptr;
};

}  // namespace msw
