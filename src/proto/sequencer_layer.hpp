// Sequencer-based total order (the fixed-sequencer scheme of Kaashoek's
// Amoeba broadcast, the first mechanism of the paper's section 7).
//
// The first group member acts as sequencer. A sender forwards its message
// point-to-point to the sequencer, which assigns the next global sequence
// number and multicasts the sequenced message; every member (sender and
// sequencer included) delivers in global-sequence order. Latency under low
// load is therefore roughly two network hops — but every message crosses
// the sequencer's CPU twice (receive + multicast), so the sequencer
// saturates as the number of active senders grows. That queueing delay is
// the rising curve of Figure 2.
//
// The protocol is self-contained under a fair-lossy network:
//   - senders retransmit their order-request until they see their own
//     message come back sequenced (implicit ack);
//   - receivers NACK global-sequence gaps to the sequencer, which
//     retransmits from history;
//   - receivers periodically ack their contiguous prefix so the sequencer
//     can garbage-collect history.
//
// Point-to-point traffic of layers above passes through unmodified.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "stack/layer.hpp"
#include "telemetry/metrics.hpp"
#include "util/seq_tracker.hpp"

namespace msw {

struct SequencerConfig {
  /// Sender-side order-request retransmission interval.
  Duration request_rto = 20 * kMillisecond;
  /// Receiver-side gap NACK interval.
  Duration nack_interval = 10 * kMillisecond;
  /// Receiver-side history ack (garbage collection) interval.
  Duration ack_interval = 100 * kMillisecond;
  /// Sequencer heartbeat advertising the global-sequence horizon, so a
  /// receiver that lost the *last* sequenced message still detects the gap.
  Duration heartbeat_interval = 50 * kMillisecond;
  /// CPU time the sequencer spends ordering one message (sequence-number
  /// allocation, history bookkeeping, retransmission state) in addition to
  /// the network model's per-packet costs. This serial work is what makes
  /// the sequencer a bottleneck under many active senders (Figure 2).
  Duration order_cost = 0;
  /// Fault injection for monitor self-tests: re-introduces the historical
  /// crashed-sequencer bug where the sequencer never refilled its own
  /// delivery gaps from local history after a restart (fixed alongside the
  /// fuzzer that found it). Never set outside tests.
  bool fault_skip_self_refill = false;
};

class SequencerLayer : public Layer {
 public:
  SequencerLayer() = default;
  explicit SequencerLayer(SequencerConfig cfg) : cfg_(cfg) {}

  std::string_view name() const override { return "sequencer"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  bool is_sequencer() const { return ctx().self() == sequencer(); }

  struct Stats {
    std::uint64_t requests_retransmitted = 0;
    std::uint64_t gap_nacks_sent = 0;
    /// History frames resent over the network (to a NACKing member, or to
    /// an origin whose request was a duplicate).
    std::uint64_t history_retransmissions = 0;
    /// The sequencer's own copies re-delivered locally from history (see
    /// send_gap_nacks); never counted as retransmissions.
    std::uint64_t self_refills = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t sequenced = 0;  // messages this node assigned order to
  };
  const Stats& stats() const { return stats_; }

 private:
  NodeId sequencer() const { return ctx().members().front(); }

  void on_order_req(std::uint32_t origin, std::uint64_t oseq, Message m);
  void on_sequenced(std::uint64_t gseq, std::uint32_t origin, std::uint64_t oseq, Message m);
  void on_gap_nack(NodeId requester, const std::vector<std::uint64_t>& gseqs);
  void on_gc_ack(std::uint32_t from, std::uint64_t contiguous);

  void sequence_and_multicast(std::uint32_t origin, std::uint64_t oseq, Message m);
  void retransmit_pending();
  void send_gap_nacks();
  void send_gc_ack();
  void send_heartbeat();

  SequencerConfig cfg_;

  // Sender state.
  std::uint64_t next_oseq_ = 0;
  std::map<std::uint64_t, Payload> pending_;  // oseq -> order-request frame (shared)
  /// "seq.pending" queue-depth gauge (null without a metrics registry):
  /// pending_.size(), the sender-visible sequencer backlog.
  MetricsRegistry::Gauge* pending_gauge_ = nullptr;

  // Sequencer state.
  std::uint64_t next_gseq_ = 0;
  std::unordered_map<std::uint32_t, SeqTracker> sequenced_oseqs_;
  std::map<std::uint64_t, Payload> history_;  // gseq -> sequenced frame (shared)
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> assigned_;  // (origin,oseq)->gseq
  std::unordered_map<std::uint32_t, std::uint64_t> gc_acked_;
  // Gseqs below this bound were assigned before the previous NACK tick, so
  // their loopback copies had a full interval to arrive; one still missing
  // is lost (crash downtime) and is refilled from history_.
  std::uint64_t refill_bound_ = 0;

  // Receiver state.
  std::uint64_t next_deliver_ = 0;
  std::uint64_t highest_gseq_seen_ = 0;  // exclusive bound for gap NACKs
  std::map<std::uint64_t, Message> reorder_;
  Stats stats_;

  Tracer* tr_ = &Tracer::disabled();
  std::uint32_t n_gap_nack_ = 0, n_retx_ = 0;
};

}  // namespace msw
