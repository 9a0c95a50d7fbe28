#include "proto/reliable_layer.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace msw {
namespace {

// Type bytes 2 and 5 belonged to retired frame formats and stay unassigned,
// so a stray old frame is a counted decode drop like any undefined type.
enum class Type : std::uint8_t {
  kData = 0,
  kPass = 1,
  kHeartbeat = 3,
  kAck = 4,
  kNackRange = 6,    // range-coded, varint-delta
  kAckVecDelta = 7,  // delta/full snapshot, varint fields
};

/// Cap on missing sequences requested per NACK round, to bound
/// retransmission bursts after long partitions.
constexpr std::size_t kMaxNackBatch = 64;

/// The range-NACK and delta-ack-vector frames carry a u16 entry count, so
/// one frame holds at most this many entries; send_acks splits larger
/// vectors across frames and the encoders refuse (rather than truncate)
/// anything bigger.
constexpr std::size_t kMaxFrameEntries = 0xFFFF;

/// Every k-th ack tick sends a full ack-vector snapshot instead of a delta,
/// so a member that missed earlier deltas (loss, late join) converges.
constexpr std::uint32_t kFullAckEvery = 8;

}  // namespace

namespace relwire {

void encode_nack(Writer& w, const NackFrame& f) {
  if (f.ranges.size() > kMaxFrameEntries) throw DecodeError("nack: too many ranges for one frame");
  w.u32(f.origin);
  w.u16(static_cast<std::uint16_t>(f.ranges.size()));
  std::uint64_t prev_end = 0;
  for (const SeqRange& r : f.ranges) {
    w.varint(r.begin - prev_end);
    w.varint(r.size() - 1);
    prev_end = r.end;
  }
}

NackFrame decode_nack(Reader& r) {
  NackFrame f;
  f.origin = r.u32();
  const std::uint16_t count = r.u16();
  f.ranges.reserve(count);
  std::uint64_t prev_end = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint64_t begin = prev_end + r.varint();
    const std::uint64_t end = begin + r.varint() + 1;
    if (end <= begin || begin < prev_end) throw DecodeError("nack range overflow");
    f.ranges.push_back({begin, end});
    prev_end = end;
  }
  return f;
}

void encode_ack_vec(Writer& w, const AckVecFrame& f) {
  if (f.cums.size() > kMaxFrameEntries) {
    throw DecodeError("ack vector: too many entries for one frame");
  }
  w.u32(f.sender);
  w.u8(f.full ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(f.cums.size()));
  std::uint64_t prev_origin = 0;
  bool first = true;
  for (const auto& [origin, cum] : f.cums) {
    w.varint(first ? origin : origin - prev_origin - 1);
    w.varint(cum);
    prev_origin = origin;
    first = false;
  }
}

AckVecFrame decode_ack_vec(Reader& r) {
  AckVecFrame f;
  f.sender = r.u32();
  const std::uint8_t flags = r.u8();
  if (flags > 1) throw DecodeError("ack vector: unknown flags");
  f.full = flags == 1;
  const std::uint16_t count = r.u16();
  f.cums.reserve(count);
  std::uint64_t prev_origin = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint64_t gap = r.varint();
    const std::uint64_t origin = f.cums.empty() ? gap : prev_origin + gap + 1;
    if (origin > ~std::uint32_t{0}) throw DecodeError("ack vector: origin overflow");
    f.cums.emplace_back(static_cast<std::uint32_t>(origin), r.varint());
    prev_origin = origin;
  }
  return f;
}

}  // namespace relwire

void ReliableLayer::start() {
  tr_ = &ctx().tracer();
  n_nack_ = tr_->intern("rel.nack");
  n_retx_ = tr_->intern("rel.retransmit");
  n_refill_ = tr_->intern("rel.self_refill");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("rel.nacks_sent", &stats_.nacks_sent);
    reg->attach_counter("rel.retransmissions", &stats_.retransmissions);
    reg->attach_counter("rel.self_refills", &stats_.self_refills);
    reg->attach_counter("rel.duplicates_dropped", &stats_.duplicates_dropped);
    reg->attach_counter("rel.nack_bytes_sent", &stats_.nack_bytes_sent);
    reg->attach_counter("rel.nack_entries_sent", &stats_.nack_entries_sent);
    reg->attach_counter("rel.ack_bytes_sent", &stats_.ack_bytes_sent);
    reg->attach_counter("rel.ack_entries_sent", &stats_.ack_entries_sent);
    reg->attach_counter("rel.members_evicted", &stats_.members_evicted);
    reg->attach_counter("rel.buffer_evictions", &stats_.buffer_evictions);
    reg->attach_counter("rel.decode_drops", &stats_.decode_drops);
  }
  quorum_baseline_ = ctx().now();
  ctx().set_timer(cfg_.nack_interval, [this] { send_nacks(); });
  ctx().set_timer(cfg_.heartbeat_interval, [this] { send_heartbeat(); });
  ctx().set_timer(cfg_.ack_interval, [this] { ack_tick(); });
}

void ReliableLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t origin = ctx().self().v;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u32(origin);
    w.u64(seq);
  });
  if (sent_buffer_.empty()) {
    // Members never heard from get a full horizon from the moment there is
    // something for them to ack, not from layer start — otherwise a burst
    // after a long quiet period would GC instantly under everyone's nose.
    // Members evicted before the burst get the same fresh horizon: a fully
    // idle group exchanges no frames (no data means no heartbeats, and the
    // p2p ack path has no origins to ack), so healthy members look silent
    // and evict each other. Without re-admission the first multicast after
    // a quiet period faces an *empty* GC quorum and is collected at the
    // next ack tick, racing — and silently losing to — a receiver whose
    // copy was dropped on the wire and who has not NACKed yet.
    quorum_baseline_ = std::max(quorum_baseline_, ctx().now());
    evicted_.clear();
  }
  sent_buffer_.emplace(seq, m.data);  // shares the buffer for retransmission
  if (cfg_.max_sent_buffer > 0) {
    while (sent_buffer_.size() > cfg_.max_sent_buffer) {
      sent_buffer_.erase(sent_buffer_.begin());
      ++stats_.buffer_evictions;
    }
  }
  ctx().send_down(std::move(m));
}

void ReliableLayer::up(Message m) {
  last_heard_[m.wire_src.v] = ctx().now();
  evicted_.erase(m.wire_src.v);  // any sign of life rejoins the GC quorum

  // peer_assist needs the wire form (header included) to store for peers;
  // grabbing it before the pops below is free — the Payload shares the
  // receive buffer and keeps its own (longer) logical view of it.
  Payload wire_copy;
  if (cfg_.peer_assist) wire_copy = m.data;

  Type type{};
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  std::vector<SeqRange> nack_ranges;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ack_vec;
  try {
    m.pop_header([&](Reader& r) {
      type = static_cast<Type>(r.u8());
      switch (type) {
        case Type::kData:
          origin = r.u32();
          seq = r.u64();
          break;
        case Type::kPass:
          break;
        case Type::kNackRange: {
          relwire::NackFrame f = relwire::decode_nack(r);
          origin = f.origin;
          nack_ranges = std::move(f.ranges);
          break;
        }
        case Type::kHeartbeat:
          origin = r.u32();
          seq = r.u64();
          break;
        case Type::kAck:
          origin = r.u32();
          seq = r.u64();
          break;
        case Type::kAckVecDelta: {
          relwire::AckVecFrame f = relwire::decode_ack_vec(r);
          origin = f.sender;
          ack_vec = std::move(f.cums);
          break;
        }
        default:
          throw DecodeError("unknown reliable frame type");
      }
    });
  } catch (const DecodeError&) {
    // Truncated, malformed, or of a type this decoder does not define:
    // drop the frame, never misparse it.
    ++stats_.decode_drops;
    return;
  }
  switch (type) {
    case Type::kData:
      on_data(origin, seq, std::move(m), wire_copy);
      break;
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      break;
    case Type::kNackRange:
      on_nack(m.wire_src, origin, nack_ranges);
      break;
    case Type::kHeartbeat:
      on_heartbeat(origin, seq);
      break;
    case Type::kAck:
      on_ack(origin, seq);
      break;
    case Type::kAckVecDelta:
      on_ack_vector(origin, ack_vec);
      break;
  }
}

void ReliableLayer::on_data(std::uint32_t origin, std::uint64_t seq, Message m,
                            const Payload& wire_copy) {
  OriginState& o = origins_[origin];
  o.announced = std::max(o.announced, seq + 1);
  if (!o.track.insert(seq)) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (cfg_.peer_assist && origin != ctx().self().v) {
    auto& copies = store_[origin];
    copies.emplace(seq, wire_copy);
    if (cfg_.max_store_per_origin > 0) {
      while (copies.size() > cfg_.max_store_per_origin) {
        copies.erase(copies.begin());
        ++stats_.buffer_evictions;
      }
    }
  }
  ctx().deliver_up(std::move(m));
}

NodeId ReliableLayer::nack_target(std::uint32_t origin) {
  if (!cfg_.peer_assist) return NodeId{origin};
  // Rotate across the other members so retries reach whoever holds a copy
  // even when the origin is gone.
  const auto& members = ctx().members();
  for (std::size_t tries = 0; tries < members.size(); ++tries) {
    const NodeId candidate = members[nack_rotation_++ % members.size()];
    if (candidate != ctx().self()) return candidate;
  }
  return NodeId{origin};
}

void ReliableLayer::on_nack(NodeId requester, std::uint32_t origin,
                            const std::vector<SeqRange>& ranges) {
  const bool own_stream = origin == ctx().self().v;
  if (!own_stream && !cfg_.peer_assist) return;  // stale or misrouted
  const std::map<std::uint64_t, Payload>* buf = nullptr;
  if (own_stream) {
    buf = &sent_buffer_;
  } else {
    auto os = store_.find(origin);
    if (os != store_.end()) buf = &os->second;
  }
  if (buf == nullptr) return;  // collected, or we never had it
  for (const SeqRange& rg : ranges) {
    for (auto it = buf->lower_bound(rg.begin); it != buf->end() && it->first < rg.end; ++it) {
      ++stats_.retransmissions;
      tr_->instant(n_retx_, TelemetryTrack::kData, it->first);
      ctx().send_down(Message::p2p(requester, it->second));
    }
  }
}

void ReliableLayer::on_heartbeat(std::uint32_t origin, std::uint64_t next_seq) {
  if (origin == ctx().self().v) return;
  origins_[origin].announced = std::max(origins_[origin].announced, next_seq);
}

void ReliableLayer::on_ack(std::uint32_t from, std::uint64_t contiguous) {
  auto& acked = acked_by_[from];
  acked = std::max(acked, contiguous);
  collect_garbage();
}

void ReliableLayer::on_ack_vector(
    std::uint32_t from, const std::vector<std::pair<std::uint32_t, std::uint64_t>>& cums) {
  auto& row = ack_matrix_[from];
  for (const auto& [origin, cum] : cums) {
    auto& cell = row[origin];
    cell = std::max(cell, cum);
    if (origin == ctx().self().v && from != ctx().self().v) {
      auto& acked = acked_by_[from];
      acked = std::max(acked, cum);
    }
    // A peer's contiguous prefix also advertises the stream's horizon:
    // even if the origin is dead and we heard nothing from it, we now know
    // what we are missing and can NACK a surviving peer for it.
    if (origin != ctx().self().v) {
      auto& o = origins_[origin];
      o.announced = std::max(o.announced, cum);
    }
  }
  collect_garbage();
  collect_store_garbage();
}

void ReliableLayer::refill_own_gaps() {
  // A crash drops a node's own in-flight loopback copies along with
  // everything else, leaving gaps in its *own* stream that no peer can fill
  // for it: send_nacks skips the self origin (NACKing yourself over the
  // wire is a no-op while you are the one holding the copy). Re-deliver the
  // missing copies straight from sent_buffer_ — the local analogue of a
  // retransmission. Without this, every causal successor of the lost sends
  // (our own later messages included) blocks above us forever.
  //
  // Only sequences sent before the *previous* NACK tick are eligible, so a
  // copy whose loopback delivery is merely in flight (microseconds) is not
  // raced. The path does fire without faults: once a node's CPU backlog
  // exceeds one NACK interval, its own loopback copies are still queued a
  // tick later and are refilled here (the refill is local and costs no
  // network send; the late copy then arrives as a duplicate). So
  // rel.self_refills is not a fault signal on a saturated node.
  const std::uint64_t bound = refill_bound_;
  refill_bound_ = next_seq_;
  if (bound == 0) return;
  OriginState& own = origins_[ctx().self().v];
  if (own.track.contiguous() >= bound) return;
  const std::vector<SeqRange> missing = own.track.missing_ranges(bound, kMaxNackBatch);
  std::vector<std::pair<std::uint64_t, Payload>> copies;
  for (const SeqRange& rg : missing) {
    for (auto it = sent_buffer_.lower_bound(rg.begin);
         it != sent_buffer_.end() && it->first < rg.end; ++it) {
      copies.emplace_back(it->first, it->second);
    }
  }
  for (auto& [seq, p] : copies) {
    ++stats_.self_refills;
    tr_->instant(n_refill_, TelemetryTrack::kData, seq);
    Message m;
    m.data = std::move(p);
    m.wire_src = ctx().self();
    up(std::move(m));
  }
}

void ReliableLayer::send_nacks() {
  refill_own_gaps();
  for (auto& [origin, o] : origins_) {
    if (origin == ctx().self().v) continue;
    const std::vector<SeqRange> missing = o.track.missing_ranges(o.announced, kMaxNackBatch);
    if (missing.empty()) continue;
    std::uint64_t missing_seqs = 0;
    for (const SeqRange& r : missing) missing_seqs += r.size();
    ++stats_.nacks_sent;
    tr_->instant(n_nack_, TelemetryTrack::kData, missing_seqs);
    Message m = Message::p2p(nack_target(origin), {});
    relwire::NackFrame frame{origin, missing};
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kNackRange));
      relwire::encode_nack(w, frame);
    });
    stats_.nack_entries_sent += missing.size();
    stats_.nack_bytes_sent += m.size();
    ctx().send_down(std::move(m));
  }
  ctx().set_timer(cfg_.nack_interval, [this] { send_nacks(); });
}

void ReliableLayer::send_heartbeat() {
  if (next_seq_ > 0) {
    Message m = Message::group({});
    const std::uint32_t origin = ctx().self().v;
    const std::uint64_t next = next_seq_;
    m.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kHeartbeat));
      w.u32(origin);
      w.u64(next);
    });
    ctx().send_down(std::move(m));
  }
  ctx().set_timer(cfg_.heartbeat_interval, [this] { send_heartbeat(); });
}

void ReliableLayer::ack_tick() {
  update_evictions();
  send_acks();
  collect_garbage();
  collect_store_garbage();
  ctx().set_timer(cfg_.ack_interval, [this] { ack_tick(); });
}

void ReliableLayer::send_acks() {
  if (cfg_.peer_assist) {
    // Multicast the per-origin contiguous vector: stability becomes common
    // knowledge, enabling store garbage collection everywhere. Ordinarily
    // only origins whose prefix advanced since the last tick are included
    // (delta); every kFullAckEvery-th tick sends the full snapshot so a
    // member that missed deltas converges.
    const std::uint32_t self = ctx().self().v;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> cums;
    cums.emplace_back(self, next_seq_);  // our own stream, trivially held
    for (const auto& [origin, o] : origins_) {
      if (origin != self) cums.emplace_back(origin, o.track.contiguous());
    }
    std::sort(cums.begin(), cums.end());
    const bool full = ack_round_ % kFullAckEvery == 0;
    ++ack_round_;
    if (!full) {
      std::erase_if(cums, [&](const auto& e) {
        const auto it = last_ack_sent_.find(e.first);
        return it != last_ack_sent_.end() && it->second >= e.second;
      });
      if (cums.empty()) return;  // nothing advanced; peers are current
    }
    for (const auto& [origin, cum] : cums) last_ack_sent_[origin] = cum;
    // The delta frame's u16 count caps one frame at kMaxFrameEntries
    // origins; bigger vectors split across frames rather than truncate.
    // Receivers merge cumulative acks by monotone max, so the frame
    // boundary is invisible to them. max_ack_entries_per_frame lowers the
    // cap so tests can exercise the split without 65k origins.
    const std::size_t cap = cfg_.max_ack_entries_per_frame == 0
                                ? kMaxFrameEntries
                                : std::min(cfg_.max_ack_entries_per_frame, kMaxFrameEntries);
    for (std::size_t base = 0; base < cums.size(); base += cap) {
      const std::size_t n = std::min(cap, cums.size() - base);
      relwire::AckVecFrame frame{self, full,
                                 {cums.begin() + static_cast<std::ptrdiff_t>(base),
                                  cums.begin() + static_cast<std::ptrdiff_t>(base + n)}};
      Message m = Message::group({});
      m.push_header([&](Writer& w) {
        w.u8(static_cast<std::uint8_t>(Type::kAckVecDelta));
        relwire::encode_ack_vec(w, frame);
      });
      stats_.ack_bytes_sent += m.size();
      stats_.ack_entries_sent += n;
      ++stats_.ack_frames_sent;
      ctx().send_down(std::move(m));
    }
  } else {
    for (const auto& [origin, o] : origins_) {
      if (origin == ctx().self().v) continue;
      Message m = Message::p2p(NodeId{origin}, {});
      const std::uint32_t self = ctx().self().v;
      const std::uint64_t contiguous = o.track.contiguous();
      m.push_header([&](Writer& w) {
        w.u8(static_cast<std::uint8_t>(Type::kAck));
        w.u32(self);
        w.u64(contiguous);
      });
      stats_.ack_bytes_sent += m.size();
      ++stats_.ack_entries_sent;
      ctx().send_down(std::move(m));
    }
  }
}

void ReliableLayer::update_evictions() {
  if (cfg_.eviction_horizon == 0) return;
  const Time now = ctx().now();
  for (const NodeId& member : ctx().members()) {
    if (member == ctx().self() || evicted_.count(member.v) > 0) continue;
    const auto heard = last_heard_.find(member.v);
    const Time last = heard != last_heard_.end() ? std::max(heard->second, quorum_baseline_)
                                                 : quorum_baseline_;
    if (now - last > cfg_.eviction_horizon) {
      evicted_.insert(member.v);
      ++stats_.members_evicted;
      MSW_LOG(kInfo, "reliable", now)
          << "member " << member.v << " idle " << (now - last) << " us, excluded from GC quorum";
    }
  }
}

bool ReliableLayer::counts_for_gc(std::uint32_t member) const {
  return evicted_.count(member) == 0;
}

void ReliableLayer::collect_garbage() {
  // A copy may be dropped once every counted member has acknowledged a
  // contiguous prefix covering it. A member we never heard from counts as
  // acked=0 — it blocks collection exactly until the eviction horizon
  // removes it from the quorum. Our own *delivery* counts too: holding the
  // bytes is not the same as having delivered them — a crash can drop our
  // loopback copies, and refill_own_gaps re-delivers from this buffer, so
  // collection must wait for our own contiguous prefix as well.
  std::uint64_t min_acked = next_seq_;
  if (const auto own = origins_.find(ctx().self().v); own != origins_.end()) {
    min_acked = std::min(min_acked, own->second.track.contiguous());
  } else if (next_seq_ > 0) {
    min_acked = 0;  // sent, but nothing self-delivered yet
  }
  for (const NodeId& member : ctx().members()) {
    if (member == ctx().self() || !counts_for_gc(member.v)) continue;
    const auto it = acked_by_.find(member.v);
    min_acked = std::min(min_acked, it == acked_by_.end() ? 0 : it->second);
  }
  while (!sent_buffer_.empty() && sent_buffer_.begin()->first < min_acked) {
    sent_buffer_.erase(sent_buffer_.begin());
  }
}

void ReliableLayer::collect_store_garbage() {
  // Drop a peer copy of origin o's message once every counted member's ack
  // row covers it. A missing row or cell reads as 0 (blocks collection for
  // that origin) — consistently for both — until the member is evicted, at
  // which point it stops counting entirely.
  for (auto& [origin, copies] : store_) {
    std::uint64_t min_cum = ~std::uint64_t{0};
    for (const NodeId& member : ctx().members()) {
      if (member != ctx().self() && !counts_for_gc(member.v)) continue;
      const auto row = ack_matrix_.find(member.v);
      if (row == ack_matrix_.end()) {
        min_cum = 0;
        break;
      }
      const auto cell = row->second.find(origin);
      min_cum = std::min(min_cum, cell == row->second.end() ? 0 : cell->second);
    }
    while (!copies.empty() && copies.begin()->first < min_cum) {
      copies.erase(copies.begin());
    }
  }
}

ReliableLayer::Stats ReliableLayer::stats() const {
  Stats s = stats_;
  s.buffered_copies = sent_buffer_.size();
  for (const auto& [origin, copies] : store_) s.buffered_copies += copies.size();
  return s;
}

}  // namespace msw
