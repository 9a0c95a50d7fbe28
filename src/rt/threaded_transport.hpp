// Shared machinery of the real (threaded) transport backends.
//
// Owns the node table (handler + shard pinning), implements timers and the
// monotonic wall clock over the executor's event loops, and counts the
// transport-level traffic. Derived backends supply only the medium: how a
// payload physically moves from one node to another (in-process MPSC post,
// or a UDP datagram).
//
// The wall clock doubles as the TelemetryClock for runtime runs: a
// TelemetryHub attached to it stamps events with wall-clock microseconds
// since transport construction, next to (in the same schema as) the sim
// domain's simulated-microsecond stamps.
#pragma once

#include <atomic>
#include <deque>

#include "net/transport.hpp"
#include "rt/executor.hpp"

namespace msw {

class ThreadedTransport : public Transport {
 public:
  explicit ThreadedTransport(Executor& ex);

  /// Wiring phase only (single-threaded, before Executor::start).
  NodeId add_node(std::size_t shard_hint = 0) override;
  void set_handler(NodeId node, PacketHandler handler) override;

  TransportTimer set_timer(NodeId node, Duration delay, UniqueFunction<void()> fn) override;
  void cancel_timer(NodeId node, TransportTimer timer) override;

  /// Monotonic wall-clock microseconds since transport construction.
  Time now() const override;

  /// Short backend tag for labeling stats/bench output ("loopback", "udp").
  virtual const char* backend_name() const = 0;

  Executor& executor() { return ex_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t shard_of(NodeId node) const { return nodes_[node.v].shard; }
  EventLoop& loop_of(NodeId node) { return ex_.loop(nodes_[node.v].shard); }

  /// Run `fn` on the node's shard thread (FIFO with its packet/timer work).
  void post(NodeId node, std::function<void()> fn) override {
    loop_of(node).post(std::move(fn));
  }

  /// Run `fn` on the node's shard thread and wait. Inline when waiting
  /// would deadlock: already on that thread, or the executor is stopped
  /// (wiring phase / post-join teardown, where the caller is the only
  /// thread touching the node anyway).
  void call(NodeId node, FunctionRef<void()> fn) override;

  // Traffic counters (relaxed atomics; exact after the executor stops).
  std::uint64_t packets_sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t packets_delivered() const { return delivered_.load(std::memory_order_relaxed); }
  std::uint64_t packets_dropped() const { return dropped_.load(std::memory_order_relaxed); }

 protected:
  struct NodeRec {
    PacketHandler handler;
    std::size_t shard = 0;
  };

  /// Invoke the destination's handler. Must run on the destination's shard
  /// thread; derived backends arrange that (MPSC post / socket ingress).
  void deliver(NodeId dst, Packet p) {
    NodeRec& rec = nodes_[dst.v];
    if (!rec.handler) return;
    delivered_.fetch_add(1, std::memory_order_relaxed);
    rec.handler(std::move(p));
  }

  /// Backend hook: the node exists and is pinned; create its medium state.
  virtual void on_node_added(NodeId node) { (void)node; }

  void count_sent(std::uint64_t n = 1) { sent_.fetch_add(n, std::memory_order_relaxed); }
  void count_dropped(std::uint64_t n = 1) { dropped_.fetch_add(n, std::memory_order_relaxed); }

  Executor& ex_;
  std::deque<NodeRec> nodes_;  // deque: references stay stable as nodes append

 private:
  std::int64_t t0_ns_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace msw
