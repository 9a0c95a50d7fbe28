#include "proto/amoeba_layer.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t { kData = 0, kPass = 1 };

}  // namespace

void AmoebaLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  if (awaiting_) {
    queued_.push_back(std::move(m));
    return;
  }
  release(std::move(m));
}

void AmoebaLayer::release(Message m) {
  const std::uint32_t origin = ctx().self().v;
  const std::uint64_t aseq = next_aseq_++;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u32(origin);
    w.u64(aseq);
  });
  awaiting_ = true;
  ctx().send_down(std::move(m));
}

void AmoebaLayer::up(Message m) {
  Type type{};
  std::uint32_t origin = 0;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kData:
        origin = r.u32();
        r.u64();  // aseq, informational
        break;
      case Type::kPass:
        break;
      default:
        throw DecodeError("unknown amoeba frame type");
    }
  });
  if (type == Type::kPass) {
    ctx().deliver_up(std::move(m));
    return;
  }
  const bool own = origin == ctx().self().v;
  ctx().deliver_up(std::move(m));
  if (own) {
    awaiting_ = false;
    if (!queued_.empty()) {
      Message next = std::move(queued_.front());
      queued_.pop_front();
      release(std::move(next));
    }
  }
}

}  // namespace msw
