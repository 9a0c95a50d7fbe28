#include "proto/fifo_layer.hpp"

#include "telemetry/metrics.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t { kData = 0, kPass = 1 };

}  // namespace

void FifoLayer::start() {
  tr_ = &ctx().tracer();
  n_gap_ = tr_->intern("fifo.gap_buffer");
  if (MetricsRegistry* reg = ctx().metrics()) {
    reg->attach_counter("fifo.gaps_buffered", &gaps_buffered_);
  }
}

void FifoLayer::down(Message m) {
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
  ctx().send_down(std::move(m));
}

void FifoLayer::up(Message m) {
  Type type{};
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kData:
        origin = r.u32();
        seq = r.u64();
        break;
      case Type::kPass:
        break;
      default:
        throw DecodeError("unknown fifo frame type");
    }
  });
  if (type == Type::kPass) {
    ctx().deliver_up(std::move(m));
    return;
  }
  Origin& o = origins_[origin];
  if (seq < o.next_expected) return;  // duplicate of an already-delivered message
  if (seq != o.next_expected) {
    ++gaps_buffered_;
    tr_->instant(n_gap_, TelemetryTrack::kData, seq - o.next_expected);
  }
  o.pending.emplace(seq, std::move(m));
  // Drain the contiguous run starting at next_expected.
  for (auto it = o.pending.find(o.next_expected); it != o.pending.end();
       it = o.pending.find(o.next_expected)) {
    Message ready = std::move(it->second);
    o.pending.erase(it);
    ++o.next_expected;
    ctx().deliver_up(std::move(ready));
  }
}

std::size_t FifoLayer::buffered() const {
  std::size_t n = 0;
  for (const auto& [origin, o] : origins_) n += o.pending.size();
  return n;
}

}  // namespace msw
