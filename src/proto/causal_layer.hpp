// EXTENSION (not one of the paper's Table 1 layers): causal broadcast via
// vector clocks, in the style of the ISIS cbcast.
//
// Each multicast carries the sender's vector clock: entry k is how many of
// member k's messages the sender had delivered when it sent (own entry =
// how many it had sent before). A receiver delivers a message from member
// j only when it is the next in j's stream and every other entry of the
// vector is already covered locally — so delivery order extends the causal
// order of sends.
//
// Compose above ReliableLayer (this layer orders, it does not retransmit).
// Analyzed with the paper's machinery, Causal Order fails the Delayable
// meta-property, yet — like Reliability — the concrete SP preserves it
// operationally (see tests/test_causal.cpp and EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <vector>

#include "stack/layer.hpp"

namespace msw {

class CausalLayer : public Layer {
 public:
  std::string_view name() const override { return "causal"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  /// Messages buffered waiting for causal predecessors.
  std::size_t buffered() const { return pending_.size(); }

 private:
  struct Pending {
    std::size_t origin_idx;
    std::vector<std::uint64_t> vc;
    Message m;
  };

  bool deliverable(const Pending& p) const;
  void drain();
  std::size_t index_of(std::uint32_t member) const;

  std::vector<std::uint64_t> delivered_;  // per member index
  std::uint64_t sent_ = 0;
  std::vector<Pending> pending_;

  Tracer* tr_ = &Tracer::disabled();
  std::uint32_t n_blocked_ = 0;
  std::uint64_t blocked_total_ = 0;
};

}  // namespace msw
