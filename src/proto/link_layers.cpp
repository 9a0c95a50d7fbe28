#include "proto/link_layers.hpp"

#include <cassert>

namespace msw {
namespace {

enum class Type : std::uint8_t { kData = 0, kAck = 1, kPass = 2, kLoop = 3 };

/// Retransmission timeout of both protocols.
constexpr Duration kRto = 10 * kMillisecond;

Payload make_data_frame(Message&& m, std::uint64_t seq) {
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u64(seq);
  });
  return std::move(m.data);
}

Message make_ack(NodeId to, std::uint64_t seq) {
  Message ack = Message::p2p(to, {});
  ack.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kAck));
    w.u64(seq);
  });
  return ack;
}

}  // namespace

NodeId LinkLayerBase::peer() const {
  const auto& members = ctx().members();
  assert(members.size() == 2 && "link layers specialize to two-member groups");
  return members[0] == ctx().self() ? members[1] : members[0];
}

void LinkLayerBase::loop_back(const Message& m) {
  // The payload (without our header) returns to our own application,
  // mirroring the group protocols' self-delivery. Deferred a tick to keep
  // the down-path non-reentrant. Sharing the buffer here is free; the kLoop
  // header push below pays the one copy-on-write if it is still shared.
  Payload copy = m.data;
  ctx().set_timer(0, [this, copy = std::move(copy)]() mutable {
    Message local;
    local.data = std::move(copy);
    local.wire_src = ctx().self();
    local.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kLoop)); });
    up(std::move(local));
  });
}

// ------------------------------------------------------------ stop and wait

void StopAndWaitLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  loop_back(m);
  queue_.push_back(make_data_frame(std::move(m), next_seq_++));
  if (!awaiting_ack_) send_front();
}

void StopAndWaitLayer::send_front() {
  if (queue_.empty()) return;
  awaiting_ack_ = true;
  ctx().send_down(Message::p2p(peer(), queue_.front()));
  arm_timer(send_seq_);
}

void StopAndWaitLayer::arm_timer(std::uint64_t seq) {
  ctx().set_timer(kRto, [this, seq] {
    if (!awaiting_ack_ || send_seq_ != seq || queue_.empty()) return;
    ++stats_.retransmissions;
    ctx().send_down(Message::p2p(peer(), queue_.front()));
    arm_timer(seq);
  });
}

void StopAndWaitLayer::up(Message m) {
  Type type{};
  std::uint64_t seq = 0;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    if (type == Type::kData || type == Type::kAck) seq = r.u64();
  });
  switch (type) {
    case Type::kLoop:
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      return;
    case Type::kData: {
      // Always ack what we have seen; deliver only fresh in-order frames.
      if (seq == expect_) {
        ++expect_;
        // Strip our data header's payload copy: m already popped.
        Message payload = std::move(m);
        ctx().send_down(make_ack(peer(), seq));
        ctx().deliver_up(std::move(payload));
      } else if (seq < expect_) {
        // Duplicate of a delivered frame: the ack was lost; re-ack it.
        ++stats_.duplicates_dropped;
        ctx().send_down(make_ack(peer(), seq));
      }
      return;
    }
    case Type::kAck: {
      if (awaiting_ack_ && seq == send_seq_) {
        awaiting_ack_ = false;
        queue_.pop_front();
        ++send_seq_;
        send_front();
      }
      return;
    }
  }
}

// --------------------------------------------------------------- go-back-n

void GoBackNLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  loop_back(m);
  backlog_.push_back(make_data_frame(std::move(m), next_seq_++));
  pump();
}

void GoBackNLayer::pump() {
  bool sent = false;
  while (!backlog_.empty() && window_.size() < cfg_.window) {
    const std::uint64_t seq = base_ + window_.size();
    Payload frame = std::move(backlog_.front());
    backlog_.pop_front();
    transmit(seq, frame);
    window_.emplace(seq, std::move(frame));
    sent = true;
  }
  if (sent) arm_timer();
}

void GoBackNLayer::transmit(std::uint64_t seq, const Payload& frame) {
  (void)seq;  // the seq is baked into the frame
  ctx().send_down(Message::p2p(peer(), frame));
}

void GoBackNLayer::arm_timer() {
  const std::uint64_t epoch = ++timer_epoch_;
  ctx().set_timer(kRto, [this, epoch] {
    if (epoch != timer_epoch_ || window_.empty()) return;
    // Go-back-N: resend the whole window.
    for (const auto& [seq, frame] : window_) {
      ++stats_.retransmissions;
      ctx().send_down(Message::p2p(peer(), frame));
    }
    arm_timer();
  });
}

void GoBackNLayer::up(Message m) {
  Type type{};
  std::uint64_t seq = 0;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    if (type == Type::kData || type == Type::kAck) seq = r.u64();
  });
  switch (type) {
    case Type::kLoop:
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      return;
    case Type::kData: {
      if (seq == expect_) {
        ++expect_;
        ctx().send_down(make_ack(peer(), expect_ - 1));  // cumulative
        ctx().deliver_up(std::move(m));
      } else {
        ++stats_.duplicates_dropped;
        if (expect_ > 0) ctx().send_down(make_ack(peer(), expect_ - 1));
      }
      return;
    }
    case Type::kAck: {
      // Cumulative: everything up to and including seq is acked.
      bool advanced = false;
      while (!window_.empty() && window_.begin()->first <= seq) {
        window_.erase(window_.begin());
        ++base_;
        advanced = true;
      }
      if (advanced) {
        if (window_.empty()) {
          ++timer_epoch_;  // silence the timer
        } else {
          arm_timer();
        }
        pump();
      }
      return;
    }
  }
}

}  // namespace msw
