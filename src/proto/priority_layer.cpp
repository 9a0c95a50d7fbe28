#include "proto/priority_layer.hpp"

namespace msw {
namespace {

enum class Type : std::uint8_t { kData = 0, kRelease = 1, kPass = 2 };

}  // namespace

void PriorityLayer::down(Message m) {
  if (m.is_p2p()) {
    m.push_header([](Writer& w) { w.u8(static_cast<std::uint8_t>(Type::kPass)); });
    ctx().send_down(std::move(m));
    return;
  }
  const std::uint32_t origin = ctx().self().v;
  const std::uint64_t pseq = next_pseq_++;
  m.push_header([&](Writer& w) {
    w.u8(static_cast<std::uint8_t>(Type::kData));
    w.u32(origin);
    w.u64(pseq);
  });
  ctx().send_down(std::move(m));
}

void PriorityLayer::up(Message m) {
  Type type{};
  std::uint32_t origin = 0;
  std::uint64_t pseq = 0;
  m.pop_header([&](Reader& r) {
    type = static_cast<Type>(r.u8());
    switch (type) {
      case Type::kData:
      case Type::kRelease:
        origin = r.u32();
        pseq = r.u64();
        break;
      case Type::kPass:
        break;
      default:
        throw DecodeError("unknown priority frame type");
    }
  });
  switch (type) {
    case Type::kData:
      on_data({origin, pseq}, std::move(m));
      break;
    case Type::kRelease:
      on_release({origin, pseq});
      break;
    case Type::kPass:
      ctx().deliver_up(std::move(m));
      break;
  }
}

void PriorityLayer::on_data(Key key, Message m) {
  if (delivered_.count(key) > 0) return;  // duplicate
  if (is_master()) {
    delivered_.insert(key);
    // Deliver first, then release: any observer orders the master first.
    ctx().deliver_up(std::move(m));
    Message rel = Message::group({});
    rel.push_header([&](Writer& w) {
      w.u8(static_cast<std::uint8_t>(Type::kRelease));
      w.u32(key.first);
      w.u64(key.second);
    });
    ctx().send_down(std::move(rel));
    return;
  }
  if (released_.count(key) > 0) {
    delivered_.insert(key);
    ctx().deliver_up(std::move(m));
  } else {
    held_.emplace(key, std::move(m));
  }
}

void PriorityLayer::on_release(Key key) {
  if (is_master()) return;  // our own release echoing back
  released_.insert(key);
  auto it = held_.find(key);
  if (it == held_.end()) return;
  Message m = std::move(it->second);
  held_.erase(it);
  if (delivered_.insert(key).second) ctx().deliver_up(std::move(m));
}

}  // namespace msw
