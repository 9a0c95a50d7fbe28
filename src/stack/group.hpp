// A process group: n nodes on one Transport, each running an identical
// protocol stack built from a single LayerFactory (the paper's requirement
// that every process have the same stack), sharing one TraceCapture.
//
// The same class drives a group on the simulator and on the runtime. On a
// threaded transport the whole group is pinned to one executor shard: every
// packet delivery, timer callback, and posted task for the group runs on
// that shard's thread, so the per-process single-threaded contract the
// layers were written under holds unchanged, and different groups on
// different shards run in parallel. Construction and wiring happen on the
// caller's thread before the executor starts; after that, a caller off the
// shard reaches the stacks only through post() and call(). On the
// simulator every caller is on the group's context.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "stack/stack.hpp"
#include "util/function_ref.hpp"

namespace msw {

class LatencyTracker;
class TelemetryHub;

class Group {
 public:
  /// Creates `n` nodes on `transport`, all on executor shard `shard`
  /// (threaded backends), and one stack per node, their Rngs split from
  /// one seeded root. With a `hub`, events are stamped with the transport's
  /// clock and the nodes' shards feed the per-shard flight view. Wiring
  /// phase only: call before Executor::start. `capture_trace` buffers the
  /// full send/deliver trace (O(messages) memory); leave it off for
  /// throughput runs, which rely on the streaming monitors instead.
  Group(Transport& transport, std::size_t n, const LayerFactory& factory, std::size_t shard = 0,
        bool capture_trace = false, TelemetryHub* hub = nullptr,
        std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// The simulator's form: the stacks' Rngs fork from the Simulation's
  /// root and its hub records their telemetry. trace() stays empty with
  /// `capture_trace = false`.
  Group(Simulation& sim, Network& net, std::size_t n, const LayerFactory& factory,
        bool capture_trace = true);

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// Start every stack, on the group's context. Blocks until done.
  void start();

  std::size_t size() const { return stacks_.size(); }
  std::size_t shard() const { return shard_; }
  NodeId node(std::size_t i) const { return members_[i]; }
  const std::vector<NodeId>& members() const { return members_; }
  Transport& transport() { return transport_; }

  /// Direct stack access: wiring phase, or on the group's context.
  Stack& stack(std::size_t i) { return *stacks_[i]; }

  /// Run `fn` on the group's context, after the caller returns (see
  /// Transport::post). Thread-safe.
  void post(std::function<void()> fn) { transport_.post(members_.front(), std::move(fn)); }

  /// Run `fn` on the group's context and wait for it (see Transport::call).
  void call(FunctionRef<void()> fn) const { transport_.call(members_.front(), fn); }

  /// Multicast from member i, on the group's context (a caller off the
  /// shard posts it).
  void send(std::size_t i, Bytes body) {
    if (latency_ != nullptr) stamp_sends(i, 1);
    stacks_[i]->send(std::move(body));
  }

  /// Multicast a same-instant run from member i (see Stack::send_batch).
  void send_batch(std::size_t i, std::vector<Bytes> bodies) {
    if (latency_ != nullptr) stamp_sends(i, bodies.size());
    stacks_[i]->send_batch(std::move(bodies));
  }

  /// The buffered trace. On threads, read it once the executor is stopped
  /// (or from within call()).
  TraceCapture& capture() { return capture_; }
  const Trace& trace() const { return capture_.trace(); }

  /// Totals across all members, read on the group's context.
  std::uint64_t total_delivered() const;
  std::uint64_t total_sent() const;
  std::uint64_t delivered_at(std::size_t i) const;

  /// Wire end-to-end latency tracking (usually via RtStatsPlane::
  /// attach_group). Wiring phase only. Claims every stack's on_deliver
  /// hook and stamps each send and send_batch. Compiled to a no-op when
  /// the build's MSW_RT_STATS instrumentation is off.
  void attach_latency(LatencyTracker* t);

 private:
  /// Creates the nodes and one stack each, splitting each stack's Rng from
  /// `root` in member order.
  void build(std::size_t n, const LayerFactory& factory, bool capture_trace, TelemetryHub* hub,
             Rng& root);

  /// Stamp the next `count` sends of member i on the latency tracker.
  void stamp_sends(std::size_t i, std::size_t count);

  Transport& transport_;
  std::size_t shard_;
  std::vector<NodeId> members_;
  TraceCapture capture_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  LatencyTracker* latency_ = nullptr;  // group-context use after wiring
};

}  // namespace msw
