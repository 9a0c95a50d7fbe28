#include "switch/policy/signal_plane.hpp"

#include "stack/layer.hpp"

namespace msw {
namespace {

/// Windowed vectors retained: 3.2 s at the default 100 ms sampling.
constexpr std::size_t kRing = 32;

}  // namespace

SignalPlane::SignalPlane(SignalPlaneConfig cfg) : cfg_(cfg) { ring_.resize(kRing); }

void SignalPlane::bind(Services& services) {
  services_ = &services;
  view_.bind(services.metrics());

  s_sent_ = view_.add("app.sent");
  s_delivered_ = view_.add("app.delivered");
  s_seq_pending_ = view_.add("seq.pending");
  s_seq_nacks_ = view_.add("seq.gap_nacks_sent");
  s_token_nacks_ = view_.add("token.gap_nacks_sent");
  s_rel_nacks_ = view_.add("rel.nacks_sent");
  s_seq_retx_ = view_.add("seq.history_retransmissions");
  s_token_retx_hist_ = view_.add("token.history_retransmissions");
  s_rel_retx_ = view_.add("rel.retransmissions");
  s_req_retx_ = view_.add("seq.requests_retransmitted");
  s_sp_token_retx_ = view_.add("sp.token_retransmissions");
  s_sp_stale_ = view_.add("sp.stale_dropped");

  last_sample_ = services.now();
  arm_timer();
}

void SignalPlane::arm_timer() {
  services_->set_timer(cfg_.sample_every, [this] {
    sample();
    arm_timer();
  });
}

double SignalPlane::rate(std::size_t slot, double* prev, double dt_s) {
  const double cur = view_.read(slot);
  const double delta = cur - *prev;
  *prev = cur;
  return dt_s > 0 ? delta / dt_s : 0.0;
}

void SignalPlane::sample() {
  if (services_ == nullptr) return;
  const Time now = services_->now();
  const double dt_s = last_sample_ >= 0 ? to_sec(now - last_sample_) : 0.0;
  last_sample_ = now;

  SignalVector v;
  v.t = now;
  v.dt_s = dt_s;
  v.send_rate = rate(s_sent_, &p_sent_, dt_s);
  v.delivered_rate = rate(s_delivered_, &p_delivered_, dt_s);
  v.seq_pending = view_.read(s_seq_pending_);  // gauge: level, not rate
  v.nack_rate = rate(s_seq_nacks_, &p_seq_nacks_, dt_s) +
                rate(s_token_nacks_, &p_token_nacks_, dt_s) +
                rate(s_rel_nacks_, &p_rel_nacks_, dt_s);
  v.retx_rate = rate(s_seq_retx_, &p_seq_retx_, dt_s) +
                rate(s_token_retx_hist_, &p_token_retx_hist_, dt_s) +
                rate(s_rel_retx_, &p_rel_retx_, dt_s) +
                rate(s_req_retx_, &p_req_retx_, dt_s);
  v.token_retx_rate = rate(s_sp_token_retx_, &p_sp_token_retx_, dt_s);
  v.stale_rate = rate(s_sp_stale_, &p_sp_stale_, dt_s);
  v.active_senders = consult_senders_;
  v.rotation_us = consult_rotation_us_;

  ring_[next_] = v;
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
  ++total_samples_;
}

void SignalPlane::push_consult(double active_senders, Duration rotation) {
  consult_senders_ = active_senders;
  if (rotation > 0) consult_rotation_us_ = static_cast<double>(rotation);
  if (count_ > 0) {
    SignalVector& latest = ring_[(next_ + ring_.size() - 1) % ring_.size()];
    latest.active_senders = consult_senders_;
    if (consult_rotation_us_ > 0) latest.rotation_us = consult_rotation_us_;
  }
}

const SignalVector& SignalPlane::latest() const {
  if (count_ == 0) return zero_;
  return ring_[(next_ + ring_.size() - 1) % ring_.size()];
}

SignalVector SignalPlane::windowed(Duration span) const {
  if (count_ == 0) return zero_;
  const SignalVector& newest = latest();
  SignalVector out;
  out.t = newest.t;
  double wsum = 0;  // total window time aggregated (rate weighting)
  std::size_t n = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const SignalVector& v = ring_[i];
    if (newest.t - v.t > span) continue;
    const double w = v.dt_s;
    out.dt_s += v.dt_s;
    out.send_rate += v.send_rate * w;
    out.delivered_rate += v.delivered_rate * w;
    out.nack_rate += v.nack_rate * w;
    out.retx_rate += v.retx_rate * w;
    out.token_retx_rate += v.token_retx_rate * w;
    out.stale_rate += v.stale_rate * w;
    wsum += w;
    out.seq_pending += v.seq_pending;
    ++n;
  }
  if (n == 0) return newest;
  if (wsum > 0) {
    out.send_rate /= wsum;
    out.delivered_rate /= wsum;
    out.nack_rate /= wsum;
    out.retx_rate /= wsum;
    out.token_retx_rate /= wsum;
    out.stale_rate /= wsum;
  }
  out.seq_pending /= static_cast<double>(n);
  // Consult-pushed levels: the freshest value is the right one.
  out.active_senders = newest.active_senders;
  out.rotation_us = newest.rotation_us;
  return out;
}

}  // namespace msw
