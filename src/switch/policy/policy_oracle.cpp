#include "switch/policy/policy_oracle.hpp"

#include <algorithm>
#include <string>

#include "stack/layer.hpp"

namespace msw {
namespace {

/// SP token retransmissions/s above which switch initiation is vetoed — a
/// drain started while the control ring is itself dropping tokens is the
/// paper's "unexpected hitch" at its worst. It only trips on genuine
/// retransmission storms: ordinary loss, and even a saturated sequencer
/// slowing the ring, sit well below it.
constexpr double kChurnVetoTokenRetx = 25.0;

}  // namespace

std::string_view to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kSequencer: return "sequencer";
    case ProtocolKind::kToken: return "token";
  }
  return "?";
}

PolicyOracle::PolicyOracle(PolicyConfig cfg, SignalPlane::ExternalSource ext)
    : cfg_(cfg), signals_(cfg.signals), hysteresis_(cfg.dwell) {
  if (ext) signals_.set_external_source(std::move(ext));
}

void PolicyOracle::attach(Services& services) {
  services_ = &services;
  members_ = services.members().size();
  signals_.bind(services);
  if (MetricsRegistry* reg = services.metrics()) {
    for (std::size_t k = 0; k < kProtocolKinds; ++k) {
      g_score_[k] = &reg->gauge(std::string("policy.score_us.") +
                                std::string(to_string(static_cast<ProtocolKind>(k))));
    }
    g_dwell_ = &reg->gauge("policy.dwell_us");
  }
}

double PolicyOracle::score_us(ProtocolKind kind, const SignalVector& s,
                              std::size_t members, double net_inflation) const {
  using namespace policy_priors;
  switch (kind) {
    case ProtocolKind::kSequencer: {
      // M/M/1 queueing at the sequencer. Utilisation comes from the larger
      // of two load estimates: the measured group order rate (every member
      // delivers every multicast, so the local delivery rate ~ the rate
      // crossing the sequencer's CPU), and the *offered* load — this node's
      // own send rate times the group's active-sender count. The second
      // estimate is what sees saturation: once the sequencer is the
      // bottleneck the delivered rate is clamped at capacity and its rho
      // stays politely sub-critical while queues diverge. Both inputs keep
      // updating whichever protocol is active. The node's own unsequenced
      // backlog (seq.pending) adds its drain time on top.
      const double offered =
          std::max(s.delivered_rate, s.send_rate * std::max(s.active_senders, 1.0));
      const double mu = 1e6 / kSeqServiceUs;
      const double rho = std::clamp(offered / mu, 0.0, kRhoCap);
      return kSeqBaseUs * net_inflation + kSeqServiceUs * rho / (1.0 - rho) +
             s.seq_pending * kSeqBacklogUs;
    }
    case ProtocolKind::kToken: {
      // Expected wait for the rotating token is half a rotation; use the
      // measured NORMAL-token rotation when available (the SP control token
      // crosses the same ring), else the calibrated per-hop prior.
      const double rotation = s.rotation_us > 0
                                  ? s.rotation_us
                                  : static_cast<double>(members) * kTokenHopUs;
      return kTokenBaseUs + rotation / 2.0;
    }
  }
  return 0;
}

bool PolicyOracle::should_switch(const OracleView& view) {
  ++stats_.consults;
  signals_.push_consult(static_cast<double>(view.active_senders), view.normal_rotation);

  // A switch completed since the last consult: feed its overhead span to
  // the dwell controller.
  if (view.switches_completed > seen_switches_) {
    seen_switches_ = view.switches_completed;
    hysteresis_.observe(view.last_switch_overhead);
  }
  const Duration dwell = hysteresis_.dwell();
  if (g_dwell_) g_dwell_->set(dwell);

  // Signal vector for this decision: windowed aggregates once the plane is
  // sampling, else a synthetic vector from consult-time signals alone
  // (bare-layer tests, stacks without telemetry).
  SignalVector s;
  if (!signals_.empty()) {
    s = signals_.windowed(cfg_.window);
  } else {
    s.t = view.now;
    s.active_senders = static_cast<double>(view.active_senders);
    s.rotation_us = static_cast<double>(view.normal_rotation);
  }

  const std::size_t members = members_ > 0 ? members_ : 1;
  const auto active_kind = static_cast<ProtocolKind>(view.active_protocol & 1);

  // The measured ring rotation is a self-measurement only while the token
  // protocol is the one driving the ring. Under the sequencer, the SP
  // control token crosses CPUs saturated by *sequencer* work, so the
  // inflated rotation is an artifact of the protocol being escaped, not a
  // forecast of the token ring's own behaviour — scoring the escape route
  // with it would make the exit look worse the more the active protocol
  // struggles. Fall back to the calibrated prior in that case.
  SignalVector s_tok = s;
  if (active_kind != ProtocolKind::kToken) s_tok.rotation_us = 0;

  // While the token protocol drives the ring, the measured rotation is a
  // clean probe of current network conditions (jitter, loss-induced delay),
  // and those conditions degrade every protocol's hop latency, not just the
  // one being measured. Scale the sequencer's prior base term by the same
  // observed slowdown; otherwise a jitter burst inflates only the live
  // measurement and the engine switches toward whichever side is blind.
  double net_inflation = 1.0;
  if (active_kind == ProtocolKind::kToken && s.rotation_us > 0) {
    const double prior_rotation = static_cast<double>(members) * policy_priors::kTokenHopUs;
    net_inflation = std::max(1.0, s.rotation_us / prior_rotation);
  }

  std::array<double, kProtocolKinds> score{};
  for (std::size_t k = 0; k < kProtocolKinds; ++k) {
    const auto kind = static_cast<ProtocolKind>(k);
    score[k] = score_us(kind, kind == ProtocolKind::kToken ? s_tok : s, members,
                        net_inflation);
    if (g_score_[k]) g_score_[k]->set(static_cast<std::int64_t>(score[k]));
  }

  // Oscillation guards come after scoring so the published ranking stays
  // live even while vetoed.
  if (view.since_last_switch < dwell) {
    ++stats_.vetoed_dwell;
    return false;
  }
  if (s.token_retx_rate > kChurnVetoTokenRetx) {
    ++stats_.vetoed_churn;
    return false;
  }

  const double active = score[static_cast<std::size_t>(active_kind)];
  const double alt = score[1 - static_cast<std::size_t>(active_kind)];
  if (active > cfg_.switch_margin * alt + cfg_.switch_cost_us) {
    ++stats_.switch_decisions;
    return true;
  }
  return false;
}

}  // namespace msw
