// A process group: n nodes on one network, each running an identical
// protocol stack built from a single LayerFactory (the paper's requirement
// that every process have the same stack), sharing one TraceCapture.
#pragma once

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/stack.hpp"

namespace msw {

class Group {
 public:
  /// Creates `n` nodes on `net` and one stack per node. Call start() before
  /// sending. `capture_trace = false` skips the buffered TraceCapture
  /// entirely (O(messages) memory) — soak-scale runs rely on the streaming
  /// monitors instead; trace() then stays empty.
  Group(Simulation& sim, Network& net, std::size_t n, const LayerFactory& factory,
        bool capture_trace = true);

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  void start();

  std::size_t size() const { return stacks_.size(); }
  Stack& stack(std::size_t i) { return *stacks_[i]; }
  NodeId node(std::size_t i) const { return members_[i]; }
  const std::vector<NodeId>& members() const { return members_; }

  /// Multicast from member i.
  void send(std::size_t i, Bytes body) { stacks_[i]->send(std::move(body)); }

  /// Multicast a same-instant run from member i through the batched path.
  void send_batch(std::size_t i, std::vector<Bytes> bodies) {
    stacks_[i]->send_batch(std::move(bodies));
  }

  /// Toggle the batched data plane group-wide (see Stack::set_batching).
  void set_batching(bool on) {
    for (auto& s : stacks_) s->set_batching(on);
  }

  TraceCapture& capture() { return capture_; }
  const Trace& trace() const { return capture_.trace(); }

  /// Total application-level deliveries across all members.
  std::uint64_t total_delivered() const;
  /// Total application-level sends across all members.
  std::uint64_t total_sent() const;

 private:
  std::vector<NodeId> members_;
  TraceCapture capture_;
  std::vector<std::unique_ptr<Stack>> stacks_;
};

}  // namespace msw
