// Token-ring total order (the rotating-token scheme of Chang & Maxemchuk,
// the second mechanism of the paper's section 7).
//
// A token circulates on the logical ring defined by the member list. A
// process wishing to multicast must wait for the token; on receipt it
// assigns consecutive global sequence numbers from the token's counter to
// its queued messages, multicasts them, and passes the token on. Latency
// under low load is therefore about half a ring rotation — high compared
// to the sequencer — but there is no central bottleneck, so latency stays
// nearly flat as the number of active senders grows. That flat curve is
// the second series of Figure 2.
//
// Self-contained under a fair-lossy network:
//   - token handoff is acknowledged and retransmitted (the token carries a
//     serial number, so duplicates are recognized and re-acked);
//   - receivers multicast NACKs for global-sequence gaps; whichever member
//     holds the missing message in its send history retransmits it
//     point-to-point;
//   - the token carries a per-member delivered watermark; its minimum is a
//     stability bound below which send histories are garbage-collected.
//
// Point-to-point traffic of layers above passes through unmodified.
//
// Pacing (stack/token_pacing.hpp): the token counts as idle only when
// nothing has been multicast on the ring for cfg.idle_period (its counter
// has not moved at this member's visits for that long) and nothing is
// queued at this member. A member forwards an idle token no sooner than
// idle_period after it last forwarded the token, so an idle ring — and the
// parked ring of a switch's inactive side — turns about once per period,
// while a ring that carries data goes round with zero hold. Messages queued
// during a hold leave on the token when the hold ends. Every ring of >= 2
// members on hops of >= 1 ms already turns in >= 2 ms (the default period),
// so no hold ever engages on the simulator; a group of one is paced.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "stack/layer.hpp"
#include "stack/token_pacing.hpp"

namespace msw {

struct TokenConfig {
  /// Receiver-side gap NACK interval.
  Duration nack_interval = 10 * kMillisecond;
  /// Pacing period of an idle token: a member forwards it no sooner than
  /// this after it last forwarded the token. The token is idle when nothing
  /// was multicast on the ring for this long and nothing is queued here.
  Duration idle_period = kTokenPacePeriod;
  /// Maximum messages multicast per token visit.
  std::size_t batch_limit = 64;
  /// CPU time spent processing one token visit (updating the stability
  /// vector, history garbage collection) beyond per-packet costs.
  Duration token_process_cost = 0;
};

class TokenLayer : public Layer {
 public:
  TokenLayer() = default;
  explicit TokenLayer(TokenConfig cfg) : cfg_(cfg) {}

  std::string_view name() const override { return "token"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  struct Stats {
    std::uint64_t token_visits = 0;
    std::uint64_t token_retransmissions = 0;
    std::uint64_t gap_nacks_sent = 0;
    std::uint64_t history_retransmissions = 0;
    std::uint64_t duplicates_dropped = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Messages queued locally waiting for the token.
  std::size_t queued() const { return queued_.size(); }

 private:
  struct Token {
    std::uint64_t serial = 0;
    std::uint64_t next_gseq = 0;
    std::vector<std::uint64_t> delivered;  // per member index
  };

  void on_token(Token t, NodeId from);
  void process_token(Token t);
  /// Multicast what is queued, then forward the token — or, when it is
  /// idle, hold it as the pacing rule asks and come back here.
  void pass_token(Token t);
  void forward_token(Token t);
  void arm_token_retransmit();
  void on_token_ack(std::uint64_t serial);
  void on_data(std::uint64_t gseq, Message m);
  void on_nack(NodeId requester, const std::vector<std::uint64_t>& gseqs);
  void send_gap_nacks();
  Payload encode_token(const Token& t) const;

  TokenConfig cfg_;

  std::vector<Message> queued_;
  std::map<std::uint64_t, Payload> history_;  // gseq -> our multicast frame (shared)

  std::uint64_t next_deliver_ = 0;
  std::uint64_t highest_gseq_seen_ = 0;
  std::map<std::uint64_t, Message> reorder_;

  std::uint64_t last_serial_seen_ = 0;
  NodeId last_token_sender_{};
  // Outstanding handoff awaiting ack (serial 0 = none).
  std::uint64_t outstanding_serial_ = 0;
  Payload outstanding_bytes_;
  TimerId retx_timer_;               // pending handoff retransmission
  // Pacing state.
  Time last_forward_ = kLongAgo;
  std::uint64_t gseq_at_forward_ = 0;  // token's counter when last passed on
  Time last_multicast_ = kLongAgo;     // visit that saw the counter move
  std::optional<Token> held_;          // idle token held by the pacing rule
  Stats stats_;

  Tracer* tr_ = &Tracer::disabled();
  std::uint32_t n_visit_ = 0, n_gap_nack_ = 0;
};

}  // namespace msw
