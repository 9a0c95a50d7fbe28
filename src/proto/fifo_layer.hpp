// Per-sender FIFO ordering.
//
// Stamps each group multicast with (origin, sequence) and delivers each
// origin's messages to the layer above in send order, buffering gaps. This
// layer only *orders* — it never retransmits; compose it above
// ReliableLayer when the network loses packets, or the gap will stall that
// origin's stream (exactly like a FIFO layer in Horus).
//
// Point-to-point messages from layers above pass through unordered.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "stack/layer.hpp"

namespace msw {

class FifoLayer : public Layer {
 public:
  std::string_view name() const override { return "fifo"; }

  void start() override;
  void down(Message m) override;
  void up(Message m) override;

  /// Messages buffered waiting for a gap to fill (all origins).
  std::size_t buffered() const;

 private:
  struct Origin {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, Message> pending;
  };

  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint32_t, Origin> origins_;

  Tracer* tr_ = &Tracer::disabled();
  std::uint32_t n_gap_ = 0;
  std::uint64_t gaps_buffered_ = 0;
};

}  // namespace msw
