// SignalPlane: the telemetry-to-oracle bridge.
//
// PR 3 gave every node a metrics registry and PR 9 gave the real-transport
// runtime a per-shard stats plane, but the switching oracle still read a
// single hand-maintained sender count. The SignalPlane closes that loop: it
// samples the node's live per-layer instruments (application send/deliver
// counters, sequencer queue depth, gap-NACK and retransmission counters
// across seq/token/rel, SP token retransmissions) on a fixed cadence,
// differences the monotonic counters into per-second rates, and keeps the
// windowed vectors in a bounded ring. The PolicyOracle scores protocols
// from aggregates over that ring; exporters and tests read the same
// vectors for observability.
//
// Two signal paths feed one vector:
//   - sampled: timer-driven reads through a MetricsView (cheap resolved
//     slots; names unresolved until a layer registers them read as 0);
//   - consult-pushed: values only the switch layer knows (active senders in
//     the configured window, measured NORMAL-token ring rotation), pushed
//     on each oracle consult.
// An optional external source lets the runtime's per-shard stats plane
// (rt/stats) add loop-health fields — see rt/stats/signal_adapter.hpp.
//
// Everything runs on the owning process's thread (in the runtime, groups
// are pinned to one shard), so there is no locking anywhere.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace msw {

class Services;

/// One windowed sample of a node's signal surface. Rates are per second
/// over the window that ended at `t`; levels are instantaneous at `t`.
struct SignalVector {
  Time t = 0;
  double dt_s = 0;  // window length in seconds (0 = not a sampled vector)

  // Sampled from the metrics registry.
  double send_rate = 0;       // app.sent/s at this node
  double delivered_rate = 0;  // app.delivered/s at this node (~ group order rate)
  double seq_pending = 0;     // sequencer queue depth: unsequenced order requests
  double nack_rate = 0;       // gap NACKs/s across seq + token + rel layers
  double retx_rate = 0;       // data retransmissions/s across layers
  double token_retx_rate = 0; // SP control-token retransmissions/s (ring health)
  double stale_rate = 0;      // old-epoch duplicates dropped/s

  // Pushed by the switch layer at consult time.
  double active_senders = 0;
  double rotation_us = 0;     // measured NORMAL-token ring rotation

  // Filled by an external source (rt stats plane adapter); 0 in the sim.
  double loop_lag_p99_us = 0;
  double inbox_depth = 0;
};

struct SignalPlaneConfig {
  /// Sampling cadence. Each sample covers exactly the time since the
  /// previous one, so rates stay exact under timer jitter.
  Duration sample_every = 100 * kMillisecond;
};

class SignalPlane {
 public:
  /// Extra fields merged into every sampled vector (the rt stats adapter).
  using ExternalSource = std::function<void(SignalVector&)>;

  explicit SignalPlane(SignalPlaneConfig cfg = {});

  /// Wire to a process and arm the sampling timer. Without a metrics
  /// registry the plane still works off consult-pushed signals (bare-layer
  /// tests); without services entirely it is inert.
  void bind(Services& services);

  void set_external_source(ExternalSource src) { external_ = std::move(src); }

  /// Take one sample covering the time since the previous sample (or since
  /// bind). Timer-driven after bind(); callable directly in tests.
  void sample();

  /// Record consult-time signals; they ride along with subsequent samples
  /// and update the latest vector immediately.
  void push_consult(double active_senders, Duration rotation);

  bool empty() const { return count_ == 0; }
  std::size_t samples() const { return total_samples_; }
  std::size_t ring_size() const { return count_; }

  /// Most recent vector (zero vector before the first sample).
  const SignalVector& latest() const;

  /// Mean over the ring's vectors whose window ended within `span` of the
  /// newest sample (rates averaged weighted by their window lengths,
  /// levels averaged evenly). Falls back to latest() when nothing is in
  /// range.
  SignalVector windowed(Duration span) const;

 private:
  void arm_timer();
  double rate(std::size_t slot, double* prev, double dt_s);

  SignalPlaneConfig cfg_;
  Services* services_ = nullptr;
  MetricsView view_;
  ExternalSource external_;

  // MetricsView slots.
  std::size_t s_sent_ = 0, s_delivered_ = 0, s_seq_pending_ = 0;
  std::size_t s_seq_nacks_ = 0, s_token_nacks_ = 0, s_rel_nacks_ = 0;
  std::size_t s_seq_retx_ = 0, s_token_retx_hist_ = 0, s_rel_retx_ = 0;
  std::size_t s_req_retx_ = 0, s_sp_token_retx_ = 0, s_sp_stale_ = 0;

  // Previous cumulative counter values (for deltas).
  double p_sent_ = 0, p_delivered_ = 0, p_seq_nacks_ = 0, p_token_nacks_ = 0,
         p_rel_nacks_ = 0, p_seq_retx_ = 0, p_token_retx_hist_ = 0, p_rel_retx_ = 0,
         p_req_retx_ = 0, p_sp_token_retx_ = 0, p_sp_stale_ = 0;

  Time last_sample_ = -1;
  double consult_senders_ = 0;
  double consult_rotation_us_ = 0;

  /// Bounded ring of the most recent windowed vectors.
  std::vector<SignalVector> ring_;
  std::size_t next_ = 0;
  std::size_t count_ = 0;
  std::size_t total_samples_ = 0;
  SignalVector zero_{};
};

}  // namespace msw
