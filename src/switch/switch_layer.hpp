// The Switching Protocol (SP) — the paper's primary contribution
// (section 2).
//
// SP is layered over two protocols of interest and is transparent to the
// application: in normal mode it forwards sends to the current protocol
// and deliveries from it. It guarantees that, when switching, every
// process delivers ALL messages of the old protocol before any message of
// the new one — senders are never blocked (sends submitted mid-switch
// travel on the new protocol and are buffered at receivers still
// draining).
//
// As in the paper's implementation, control does not use network-level
// broadcast: a token rotates on the logical ring of group members, in one
// of four modes. A member wishing to switch awaits a NORMAL token and, as
// initiator, drives it through three rotations:
//
//   PREPARE  — each member freezes and piggybacks the count of messages it
//              sent over the current protocol, starts sending new data on
//              the new protocol, and buffers new-protocol deliveries;
//   SWITCH   — disseminates the complete count vector; a member that has
//              delivered every counted old-protocol message switches over
//              and releases its buffer;
//   FLUSH    — travels only through members that have completed the local
//              switch, so its return to the initiator certifies the switch
//              is complete everywhere, and the token reverts to NORMAL.
//
// Epochs: each completed switch increments an epoch number carried on
// every data message, so late retransmissions of an old epoch are
// recognized as duplicates and early arrivals of the next epoch are
// buffered — at most two epochs can ever be live at once because a new
// switch requires the NORMAL token, which only reappears after the
// previous FLUSH rotation completes.
//
// Assumptions on the underlying protocols (paper section 2): no spurious
// deliveries, at-most-once delivery; exactly-once for switch liveness.
// Token handoffs are acknowledged and retransmitted, so SP itself
// tolerates a fair-lossy network.
//
// Each underlying protocol, and SP's control traffic, gets a private
// channel over the shared endpoint via Mux (Figure 1's MULTIPLEX).
//
// Pacing (stack/token_pacing.hpp): a NORMAL token carries no work unless
// this member initiates a switch, so a member forwards it no sooner than
// cfg.normal_period after it last forwarded the ring's token — idle or
// under load — and the oracle is consulted once per NORMAL visit, so
// consults slow with it. PREPARE, SWITCH and FLUSH are never held. A switch
// requested while the token is held starts when the hold ends. Every ring
// of >= 2 members on hops of >= 1 ms already turns in >= 2 ms (the default
// period), so on the simulator no hold ever engages and the token's bytes
// are those of an unpaced ring; a group of one is paced. The token carries
// the running total of pacing holds as an optional trailer, so
// normal_rotation() reports the ring's unpaced rotation.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/stats.hpp"
#include "stack/capture.hpp"
#include "stack/layer.hpp"
#include "stack/token_pacing.hpp"
#include "switch/multiplex_layer.hpp"
#include "switch/oracle.hpp"

namespace msw {

struct SwitchConfig {
  /// Pacing period of the NORMAL token: a member forwards it no sooner than
  /// this after it last forwarded the ring's token, unless it initiates a
  /// switch. Bounds control traffic and oracle consults to about one ring
  /// rotation per period; a switch request waits up to one period longer
  /// for the token.
  Duration normal_period = kTokenPacePeriod;
  /// Window over which "active senders" is measured for the oracle.
  Duration sender_window = 200 * kMillisecond;
  /// Starting epoch (identical at every member). Parity selects the
  /// initially active protocol; values near UINT64_MAX exercise wraparound.
  std::uint64_t initial_epoch = 0;
  /// DELIBERATE FAULT INJECTION (tests only): when set to a member id, the
  /// drain check ignores that sender's count — the member switches without
  /// draining its old-protocol messages. The trace-property oracle must
  /// catch the resulting old-before-new violation; see test_switch_fuzz.
  static constexpr std::uint32_t kNoInjectedFault = 0xffffffffu;
  std::uint32_t fault_skip_count_sender = kNoInjectedFault;
};

class SwitchLayer : public Layer {
 public:
  /// `proto_a` / `proto_b` are the two underlying protocol stacks (top
  /// first), constructed per process exactly like host-stack layers.
  /// Protocol A is active initially at every member.
  SwitchLayer(std::vector<std::unique_ptr<Layer>> proto_a,
              std::vector<std::unique_ptr<Layer>> proto_b,
              std::unique_ptr<Oracle> oracle = std::make_unique<ManualOracle>(),
              SwitchConfig cfg = {});
  ~SwitchLayer() override;

  std::string_view name() const override { return "switch"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  /// Ask this member to initiate a switch at the next NORMAL token (or when
  /// the pacing hold of a NORMAL token it holds ends), regardless of the
  /// oracle.
  void request_switch() { switch_requested_ = true; }

  std::uint64_t epoch() const { return epoch_; }
  /// Epoch a send submitted right now would be tagged with (epoch_ + 1
  /// once PREPARE has been processed — new sends ride the new protocol).
  std::uint64_t epoch_of_next_send() const { return prepared_ ? epoch_ + 1 : epoch_; }
  /// Index (0/1) of the protocol data currently travels on.
  int active_protocol() const { return static_cast<int>(epoch_ % 2); }
  /// True between processing PREPARE and completing the local switchover.
  bool switching() const { return prepared_; }
  /// New-epoch deliveries buffered while draining the old protocol.
  std::size_t buffered() const { return buffered_next_.size(); }

  /// Direct access to a sub-protocol layer (for tests and demos).
  Layer& sub_layer(int protocol, std::size_t i);

  struct Stats {
    std::uint64_t switches_completed = 0;       // local switchovers
    std::uint64_t switches_initiated = 0;       // this member was initiator
    std::uint64_t token_hops = 0;               // tokens this member forwarded
    std::uint64_t token_retransmissions = 0;
    std::uint64_t stale_dropped = 0;            // old-epoch duplicates
    std::uint64_t decode_drops = 0;             // frames failing decode (data or control)
    std::uint64_t max_buffered = 0;             // high-water mark of buffer
    /// Initiator-side duration of the last completed switch, from NORMAL
    /// token capture to FLUSH return (the paper's ~31 ms overhead).
    Duration last_switch_duration = 0;
    Summary switch_durations;                   // all initiated switches, ms
    /// Member-side duration of the last local switch (PREPARE seen to
    /// switchover).
    Duration last_local_switch_duration = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Distinct senders delivered within cfg.sender_window of now (oracle
  /// signal). Pure count — expired entries are pruned on the non-const
  /// consult path, not here.
  std::size_t active_senders() const;

  /// Duration of the most recent full NORMAL-token ring rotation observed
  /// at this member, less the pacing holds the token spent on the way: the
  /// rotation the ring would take unpaced. 0 until two consecutive NORMAL
  /// visits have been seen since start (or since the last switch reset the
  /// measurement).
  Duration normal_rotation() const { return normal_rotation_; }

  /// Observer invoked once per application delivery with the epoch the
  /// message travelled under (in delivery order). The fuzzer's oracle zips
  /// this stream with the captured trace to check SP's old-before-new
  /// guarantee; unset in production stacks.
  void set_epoch_tap(std::function<void(std::uint64_t epoch)> tap) { epoch_tap_ = std::move(tap); }

 private:
  enum class TokenMode : std::uint8_t { kNormal = 0, kPrepare = 1, kSwitch = 2, kFlush = 3 };

  struct Token {
    TokenMode mode = TokenMode::kNormal;
    std::uint64_t serial = 0;
    std::uint64_t epoch = 0;       // epoch being closed by this switch
    std::uint32_t initiator = 0;   // member id driving the switch
    /// PREPARE: per-member sent counts, filled as the token travels
    /// (slot i == members()[i]); SWITCH: the complete vector.
    std::vector<std::uint64_t> counts;
    /// Wrapping running total of pacing holds (µs). A varint trailer on the
    /// wire, written only once nonzero, so an unpaced ring's bytes do not
    /// change.
    std::uint64_t hold_total = 0;
  };

  // --- data path -----------------------------------------------------
  void on_subprotocol_deliver(int protocol, Message m);
  void deliver_counted(std::uint32_t sender, Message m);
  void maybe_complete_switch();
  void complete_local_switch();

  // --- control path ----------------------------------------------------
  void on_control(Message m);
  void on_token(Token t, NodeId from);
  void handle_token(Token t);
  void begin_prepare_local();
  void initiate_switch(Token t);
  /// Forward a NORMAL token that carries no work, holding it first as the
  /// pacing rule asks.
  void pass_normal(Token t);
  void forward_token(Token t, bool count_hop = true);
  void arm_token_retransmit();
  Payload encode_token(const Token& t) const;
  static Token decode_token(Reader& r);

  LayerChain& chain(int protocol) { return protocol == 0 ? *chain_a_ : *chain_b_; }

  SwitchConfig cfg_;
  std::unique_ptr<Oracle> oracle_;

  // Sub-protocol layers, wrapped into chains at start().
  std::vector<std::unique_ptr<Layer>> layers_a_;
  std::vector<std::unique_ptr<Layer>> layers_b_;
  std::unique_ptr<LayerChain> chain_a_;
  std::unique_ptr<LayerChain> chain_b_;

  // --- epoch state -----------------------------------------------------
  std::uint64_t epoch_ = 0;
  std::uint64_t sent_this_epoch_ = 0;
  std::uint64_t sent_next_epoch_ = 0;
  std::map<std::uint32_t, std::uint64_t> delivered_this_epoch_;

  // --- switch-in-progress state -----------------------------------------
  bool prepared_ = false;      // saw PREPARE for epoch_; sends go to epoch_+1
  bool have_counts_ = false;   // saw SWITCH vector
  std::vector<std::uint64_t> counts_;
  struct BufferedDeliver {
    std::uint32_t sender;
    Message m;
  };
  std::vector<BufferedDeliver> buffered_next_;  // next-epoch deliveries, in order
  std::optional<Token> held_flush_;  // FLUSH token held until local switch done
  bool i_am_initiator_ = false;
  Time switch_started_ = 0;        // initiator: NORMAL captured
  Time local_switch_started_ = 0;  // member: PREPARE processed

  // --- token transport ---------------------------------------------------
  std::uint64_t last_serial_seen_ = 0;
  std::uint64_t outstanding_serial_ = 0;
  Payload outstanding_bytes_;
  TimerId retx_timer_;             // pending handoff retransmission
  Time last_forward_ = kLongAgo;   // pacing: last forward of any token mode
  std::optional<Token> held_normal_;  // NORMAL token held by the pacing rule
  Time held_since_ = 0;
  bool switch_requested_ = false;
  /// Dwell-clock anchor: seeded to the layer's start time in start() so the
  /// first consult measures dwell from a real instant, not from time 0 —
  /// under a wall-clock runtime `now - 0` is enormous and a bursty first
  /// window could flap immediately.
  Time last_switch_time_ = 0;

  // --- oracle signal -------------------------------------------------
  /// Drop entries older than cfg.sender_window as of `now`. Runs on the
  /// non-const consult path (NORMAL token) so active_senders() stays a
  /// plain const read with no const-laundered mutation.
  void prune_sender_window(Time now);
  std::map<std::uint32_t, Time> last_seen_sender_;
  Time last_normal_visit_ = -1;    // previous NORMAL token arrival, -1 = none
  std::uint64_t hold_total_at_visit_ = 0;  // token's pacing total at that arrival
  Duration normal_rotation_ = 0;   // latest unpaced ring-rotation measurement
  std::function<void(std::uint64_t)> epoch_tap_;

  // --- telemetry -------------------------------------------------------
  /// Counts arrived (initiator: PREPARE returned; member: SWITCH token):
  /// close the prepare phase span and open the drain phase span.
  void trace_counts_arrived();
  /// Open the per-node rotation span `name` on the control track, closing
  /// whichever rotation span is currently open (they are sequential).
  void trace_rotation(std::uint32_t name, std::uint64_t arg);
  /// Close the open rotation span and, when `close_switch`, the enclosing
  /// sp.switch span (FLUSH left this node: the switch is over here).
  void trace_rotation_done(bool close_switch);

  Tracer* tr_ = &Tracer::disabled();  // cached from Services in start()
  std::uint32_t n_sp_switch_ = 0;     // control track: whole switch, per node
  std::uint32_t n_rot_prepare_ = 0, n_rot_switch_ = 0, n_rot_flush_ = 0;
  std::uint32_t n_local_ = 0;         // data track: local switchover
  std::uint32_t n_ph_prepare_ = 0, n_ph_drain_ = 0, n_ph_release_ = 0;
  std::uint32_t n_tok_forward_ = 0, n_tok_retx_ = 0, n_stale_ = 0, n_buf_ = 0;
  std::uint32_t n_epoch_install_ = 0;  // membership track: epoch now installed
  std::uint32_t open_rotation_ = 0;   // interned name of the open rotation span

  Stats stats_;
};

}  // namespace msw
