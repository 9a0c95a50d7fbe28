// NACK-based reliable multicast.
//
// Guarantees that every group multicast submitted above is eventually
// delivered above at every member, assuming a fair-lossy network (every
// retransmission has an independent chance of arriving). Mechanism:
//
//   - the sender stamps (origin, seq), multicasts, and buffers a copy;
//   - receivers track per-origin reception; a sequence gap triggers a
//     point-to-point NACK to the origin, repeated on a timer while the gap
//     persists; the origin retransmits point-to-point;
//   - senders periodically multicast a HEARTBEAT advertising their highest
//     sequence so that a lost *final* message (no later message to expose
//     the gap) is still detected;
//   - receivers periodically ACK their contiguous prefix to each origin,
//     and origins garbage-collect buffered copies acknowledged by all
//     members that still count (see the eviction horizon below).
//
// Control-plane encoding is built for large groups: NACKs carry missing
// *ranges* (varint-delta coded), so a 10^5-sequence partition gap costs a
// handful of bytes instead of one u64 per sequence, and peer-assist ack
// vectors are delta-coded (change-only entries between periodic full
// snapshots, varint fields, origin-gap coding). A frame of any other type
// — including the retired per-sequence NACK (2) and fixed-width ack vector
// (5) — is a counted decode drop, never misparsed.
//
// Garbage collection is quorum-based but bounded: a member heard from
// nothing for `eviction_horizon` is excluded from the GC quorums (sender
// buffer and peer-assist store), so a permanently crashed member cannot
// pin `sent_buffer_`/`store_` forever. Evictions are provisional: when the
// sent buffer goes empty->non-empty (the start of a burst) every evicted
// member is re-admitted with a fresh horizon, because an idle group
// exchanges no frames at all and healthy members would otherwise evict
// each other and GC the burst's first message before its receivers can
// NACK a lost copy. Explicit caps (`max_sent_buffer`,
// `max_store_per_origin`) back-stop retention against a stalled quorum;
// evicting a copy is deliberate, counted loss-of-retransmittability, not
// an invariant violation.
//
// Delivery above is unordered (dedup only); compose FifoLayer above for
// per-sender order. Point-to-point traffic of layers above passes through
// without reliability (such layers handle their own retransmission).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "stack/layer.hpp"
#include "util/seq_tracker.hpp"

namespace msw {

struct ReliableConfig {
  Duration nack_interval = 10 * kMillisecond;
  Duration heartbeat_interval = 50 * kMillisecond;
  Duration ack_interval = 100 * kMillisecond;
  /// SRM-style peer-assisted recovery: every member retains copies of
  /// *delivered* messages (all origins) until group-wide stability, acks
  /// are multicast so stability is common knowledge, and NACKs are sent to
  /// a rotating peer instead of the origin — so a message survives the
  /// crash of its sender as long as one member delivered it. Required
  /// underneath crash-tolerant membership (VsyncLayer flush exclusion).
  bool peer_assist = false;
  /// A member heard from nothing (data, ack, heartbeat, NACK) for this
  /// long is excluded from garbage-collection quorums until it speaks
  /// again — or until the sent buffer goes empty->non-empty, which
  /// re-admits all evicted members with a fresh horizon (an idle group is
  /// silent by design; idleness must not shrink the quorum for the next
  /// burst). So a permanently crashed member cannot stall GC and grow the
  /// retention buffers without bound. 0 disables eviction (the pre-scale
  /// all-members-must-ack semantics).
  Duration eviction_horizon = 30 * kSecond;
  /// Hard cap on sent_buffer_ entries; the oldest copies are evicted past
  /// it (counted in stats().buffer_evictions). 0 = unbounded.
  std::size_t max_sent_buffer = 8192;
  /// Per-origin cap on peer-assist store entries. 0 = unbounded.
  std::size_t max_store_per_origin = 8192;
  /// Test-visible override of the per-frame ack-vector entry cap. 0 = the
  /// wire format's u16 maximum (65535); larger values are clamped to it.
  /// Lowering it lets tests exercise the oversized-vector frame split
  /// without simulating 65k origins.
  std::size_t max_ack_entries_per_frame = 0;
};

/// Control-plane wire codecs, exposed for tests (round-trip, truncation)
/// and shared by ReliableLayer::up/send paths. Each codec
/// covers the frame body *after* the type byte.
namespace relwire {

struct NackFrame {
  std::uint32_t origin = 0;
  std::vector<SeqRange> ranges;
};

/// Range NACK body: u32 origin, u16 range count, then per range a varint
/// start (delta from the previous range's end) and varint (length - 1).
/// encode_nack throws DecodeError if ranges.size() exceeds the u16 count
/// (callers cap batches well below it) instead of silently truncating.
void encode_nack(Writer& w, const NackFrame& f);
NackFrame decode_nack(Reader& r);

struct AckVecFrame {
  std::uint32_t sender = 0;
  /// Full snapshot (every known origin) vs. change-only delta.
  bool full = true;
  /// (origin, contiguous) pairs, ascending by origin.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> cums;
};

/// Delta ack-vector body: u32 sender, u8 flags, u16 entry count, then per
/// entry a varint origin gap (delta from the previous origin + 1) and a
/// varint cumulative ack. encode_ack_vec throws DecodeError if cums.size()
/// exceeds the u16 count (the send path splits oversized vectors across
/// frames) instead of silently truncating.
void encode_ack_vec(Writer& w, const AckVecFrame& f);
AckVecFrame decode_ack_vec(Reader& r);

}  // namespace relwire

class ReliableLayer : public Layer {
 public:
  ReliableLayer() = default;
  explicit ReliableLayer(ReliableConfig cfg) : cfg_(cfg) {}

  std::string_view name() const override { return "reliable"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  struct Stats {
    std::uint64_t nacks_sent = 0;
    std::uint64_t retransmissions = 0;
    /// Own-stream copies re-delivered locally from sent_buffer_ after a
    /// crash dropped their loopback copies (see refill_own_gaps).
    std::uint64_t self_refills = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t buffered_copies = 0;  // currently held for retransmission
    /// Control-plane accounting (headers incl. framing, as sent down).
    std::uint64_t nack_bytes_sent = 0;
    std::uint64_t nack_entries_sent = 0;  // ranges
    std::uint64_t ack_bytes_sent = 0;
    std::uint64_t ack_entries_sent = 0;
    std::uint64_t ack_frames_sent = 0;  // frames, so tests can see splits
    /// Members excluded from GC quorums by the eviction horizon.
    std::uint64_t members_evicted = 0;
    /// Copies dropped by the max_sent_buffer / max_store_per_origin caps.
    std::uint64_t buffer_evictions = 0;
    /// Frames dropped as undecodable (unknown type or truncation).
    std::uint64_t decode_drops = 0;
  };
  Stats stats() const;

 private:
  struct OriginState {
    /// Reception tracking: contiguous prefix + interval-coded sparse set.
    SeqTracker track;
    /// Highest sequence this origin is known to have sent (from data or
    /// heartbeats); exclusive upper bound for gap detection.
    std::uint64_t announced = 0;
  };

  void on_data(std::uint32_t origin, std::uint64_t seq, Message m, const Payload& wire_copy);
  void on_nack(NodeId requester, std::uint32_t origin, const std::vector<SeqRange>& ranges);
  void on_heartbeat(std::uint32_t origin, std::uint64_t next_seq);
  void on_ack(std::uint32_t from, std::uint64_t contiguous);
  void on_ack_vector(std::uint32_t from,
                     const std::vector<std::pair<std::uint32_t, std::uint64_t>>& cums);

  void send_nacks();
  void refill_own_gaps();
  void send_heartbeat();
  void send_acks();
  void ack_tick();
  void collect_garbage();
  void collect_store_garbage();
  void update_evictions();
  bool counts_for_gc(std::uint32_t member) const;
  NodeId nack_target(std::uint32_t origin);

  ReliableConfig cfg_;
  std::uint64_t next_seq_ = 0;
  // Our own multicasts, kept until every counted member has acked (or the
  // cap evicts them). Payloads share the wire buffer, so retention and
  // retransmission are copy-free.
  std::map<std::uint64_t, Payload> sent_buffer_;
  // Per-member contiguous ack for our stream (indexed by member order).
  std::unordered_map<std::uint32_t, std::uint64_t> acked_by_;
  std::unordered_map<std::uint32_t, OriginState> origins_;
  // peer_assist: everyone's delivered messages (shared buffers) until
  // stability, and the full ack matrix member -> origin -> contiguous.
  std::map<std::uint32_t, std::map<std::uint64_t, Payload>> store_;
  std::map<std::uint32_t, std::map<std::uint32_t, std::uint64_t>> ack_matrix_;
  std::size_t nack_rotation_ = 0;
  // Liveness for the eviction horizon: when each member was last heard
  // (any frame), and the set currently excluded from GC quorums. A member
  // with no last_heard_ entry is backdated to quorum_baseline_ — the later
  // of layer start and the first moment there was something to ack.
  std::unordered_map<std::uint32_t, Time> last_heard_;
  std::set<std::uint32_t> evicted_;
  Time quorum_baseline_ = 0;
  // Delta ack-vector state: what we last advertised per origin, and the
  // tick counter driving periodic full snapshots.
  std::unordered_map<std::uint32_t, std::uint64_t> last_ack_sent_;
  std::uint32_t ack_round_ = 0;
  // Own-stream sequences below this bound have had a full NACK interval
  // for their loopback copy to arrive; anything still missing is lost
  // (crash downtime) and is re-delivered from sent_buffer_.
  std::uint64_t refill_bound_ = 0;
  Stats stats_;

  Tracer* tr_ = &Tracer::disabled();
  std::uint32_t n_nack_ = 0, n_retx_ = 0, n_refill_ = 0;
};

}  // namespace msw
