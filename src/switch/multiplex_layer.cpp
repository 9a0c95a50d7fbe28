#include "switch/multiplex_layer.hpp"

namespace msw {

void Mux::push(Message& m, std::uint16_t channel) {
  m.push_header([&](Writer& w) { w.u16(channel); });
}

std::uint16_t Mux::pop(Message& m) {
  std::uint16_t channel = 0;
  m.pop_header([&](Reader& r) { channel = r.u16(); });
  return channel;
}

void MultiplexLayer::down(Message m) {
  Mux::push(m, kDefaultChannel);
  ctx().send_down(std::move(m));
}

void MultiplexLayer::up(Message m) {
  std::uint16_t channel = 0;
  try {
    channel = Mux::pop(m);
  } catch (const DecodeError&) {
    ++dropped_;
    return;
  }
  if (channel == kDefaultChannel) {
    ctx().deliver_up(std::move(m));
    return;
  }
  auto it = handlers_.find(channel);
  if (it == handlers_.end()) {
    ++dropped_;
    return;
  }
  it->second(std::move(m));
}

void MultiplexLayer::send_on(std::uint16_t channel, Message m) {
  Mux::push(m, channel);
  ctx().send_down(std::move(m));
}

void MultiplexLayer::set_channel_handler(std::uint16_t channel,
                                         std::function<void(Message)> handler) {
  handlers_[channel] = std::move(handler);
}

}  // namespace msw
