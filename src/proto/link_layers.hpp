// Point-to-point specialization (paper section 1: "our work can easily be
// specialized for point-to-point communication").
//
// Two classic ARQ link protocols for a TWO-member group, with the same
// kind of trade-off the paper's total-order pair exhibits:
//
//   - StopAndWaitLayer: one frame in flight, positive ack, retransmit on
//     timeout. Minimal state and buffering; throughput capped at 1/RTT,
//     so latency explodes when the offered rate exceeds it.
//   - GoBackNLayer: a sliding window of frames in flight, cumulative acks,
//     timeout resends the whole window. Sustains high rates at the cost
//     of buffering and wasted retransmissions under loss.
//
// Both deliver the peer's frames in order, exactly once, and loop a local
// copy of each sent message back to their own application (like the group
// layers' self-delivery — which is also what the switching protocol's
// drain accounting expects). Switch between them with SwitchLayer exactly
// as with the multicast protocols; see bench_p2p_switching.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "stack/layer.hpp"

namespace msw {

struct LinkConfig {
  /// Frames in flight (GoBackN only).
  std::size_t window = 16;
};

/// Common plumbing: peer resolution and local loopback for a 2-member
/// group. Group messages go to the peer; p2p pass-through is transparent.
class LinkLayerBase : public Layer {
 protected:
  NodeId peer() const;
  /// Schedule local self-delivery of an outgoing message's copy.
  void loop_back(const Message& m);
};

class StopAndWaitLayer : public LinkLayerBase {
 public:
  std::string_view name() const override { return "stop-and-wait"; }

  void down(Message m) override;
  void up(Message m) override;

  struct Stats {
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates_dropped = 0;
  };
  const Stats& stats() const { return stats_; }
  std::size_t queued() const { return queue_.size(); }

 private:
  void send_front();
  void arm_timer(std::uint64_t seq);

  std::deque<Payload> queue_;  // wire-form frames awaiting their turn (shared buffers)
  bool awaiting_ack_ = false;
  std::uint64_t send_seq_ = 0;   // seq of the frame currently in flight
  std::uint64_t next_seq_ = 0;   // next seq to assign
  std::uint64_t expect_ = 0;     // next seq expected from the peer
  Stats stats_;
};

class GoBackNLayer : public LinkLayerBase {
 public:
  GoBackNLayer() = default;
  explicit GoBackNLayer(LinkConfig cfg) : cfg_(cfg) {}

  std::string_view name() const override { return "go-back-n"; }

  void down(Message m) override;
  void up(Message m) override;

  struct Stats {
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates_dropped = 0;
  };
  const Stats& stats() const { return stats_; }
  std::size_t in_flight() const { return window_.size(); }
  std::size_t queued() const { return backlog_.size(); }

 private:
  void pump();
  void arm_timer();
  void transmit(std::uint64_t seq, const Payload& frame);

  LinkConfig cfg_;
  std::deque<Payload> backlog_;               // frames beyond the window
  std::map<std::uint64_t, Payload> window_;   // unacked frames in flight (shared)
  std::uint64_t next_seq_ = 0;
  std::uint64_t base_ = 0;     // lowest unacked seq
  std::uint64_t expect_ = 0;   // receiver side: next expected
  std::uint64_t timer_epoch_ = 0;
  Stats stats_;
};

}  // namespace msw
