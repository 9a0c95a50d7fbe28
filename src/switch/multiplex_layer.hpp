// MULTIPLEX (Figure 1): several logical channels over one communication
// endpoint.
//
// `Mux` is the wire mechanism — a one-word channel tag pushed/popped like
// any other header. The switching protocol uses it directly to give each
// underlying protocol (and its own control traffic) a private channel.
// `MultiplexLayer` additionally packages the mechanism as a standalone
// composable layer: ordinary stack traffic flows through channel 0, and
// other components may register side channels.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "stack/layer.hpp"

namespace msw {

struct Mux {
  static void push(Message& m, std::uint16_t channel);
  /// Throws DecodeError on a malformed buffer.
  static std::uint16_t pop(Message& m);
};

class MultiplexLayer : public Layer {
 public:
  /// Channel used for the pass-through traffic of the stack above.
  static constexpr std::uint16_t kDefaultChannel = 0;

  std::string_view name() const override { return "multiplex"; }

  void down(Message m) override;
  void up(Message m) override;

  /// Send on a side channel (bypasses the layers above).
  void send_on(std::uint16_t channel, Message m);

  /// Receive side-channel traffic. Unregistered channels are dropped and
  /// counted.
  void set_channel_handler(std::uint16_t channel, std::function<void(Message)> handler);

  std::uint64_t dropped_unroutable() const { return dropped_; }

 private:
  std::unordered_map<std::uint16_t, std::function<void(Message)>> handlers_;
  std::uint64_t dropped_ = 0;
};

}  // namespace msw
