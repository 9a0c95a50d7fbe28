// A process group running over the runtime boundary: n nodes on one
// ThreadedTransport, each with an identical stack, the whole group pinned
// to a single executor shard.
//
// Pinning the group to one shard is what keeps the layers lock-free: every
// packet delivery, timer callback, and posted send for this group runs on
// that shard's thread, so the per-process single-threaded execution
// contract the layers were written under holds unchanged. Different groups
// on different shards run genuinely in parallel.
//
// Construction and wiring happen on the caller's thread before the
// executor starts. After Executor::start, all interaction with the stacks
// goes through post()/call() so it executes on the shard thread.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rt/threaded_transport.hpp"
#include "stack/capture.hpp"
#include "stack/layer.hpp"
#include "stack/stack.hpp"

namespace msw {

class TelemetryHub;
class LatencyTracker;

class RtGroup {
 public:
  /// Creates `n` nodes on `transport`, all pinned to `shard`, and one stack
  /// per node. Wiring phase only: call before Executor::start.
  /// `capture_trace` buffers the full send/deliver trace (O(messages)
  /// memory) for parity checks; leave off for throughput runs.
  RtGroup(ThreadedTransport& transport, std::size_t n, const LayerFactory& factory,
          std::size_t shard = 0, bool capture_trace = false, TelemetryHub* hub = nullptr,
          std::uint64_t seed = 0x9e3779b97f4a7c15ULL);
  ~RtGroup();

  RtGroup(const RtGroup&) = delete;
  RtGroup& operator=(const RtGroup&) = delete;

  std::size_t size() const { return stacks_.size(); }
  std::size_t shard() const { return shard_; }
  NodeId node(std::size_t i) const { return members_[i]; }
  const std::vector<NodeId>& members() const { return members_; }

  /// Start every stack, on the shard thread. Executor must be running.
  /// Blocks until the starts have executed.
  void start();

  /// Run `fn` on the group's shard thread (FIFO with packet/timer work).
  void post(std::function<void()> fn);

  /// Run `fn` on the shard thread and wait for it to finish. This is the
  /// only safe way to touch the stacks after the executor has started.
  void call(std::function<void()> fn);

  /// Multicast from member i, executed on the shard thread.
  void send(std::size_t i, Bytes body);

  /// Totals, read consistently on the shard thread.
  std::uint64_t total_delivered();
  std::uint64_t total_sent();
  std::uint64_t delivered_at(std::size_t i);

  /// The buffered trace. Only meaningful once the group is quiescent and
  /// the executor is stopped (or from within call()).
  TraceCapture& capture() { return capture_; }
  const Trace& trace() const { return capture_.trace(); }

  /// Direct stack access — wiring phase, or from within call(), only.
  Stack& stack(std::size_t i) { return *stacks_[i]; }

  ThreadedTransport& transport() { return transport_; }

  /// Wire end-to-end latency tracking (usually via RtStatsPlane::
  /// attach_group). Wiring phase only. Claims every stack's on_deliver
  /// hook and stamps each RtGroup::send at post-execution time
  /// on the shard thread. Compiled to a no-op when MSW_RT_STATS is off.
  void attach_latency(LatencyTracker* t);

 private:
  ThreadedTransport& transport_;
  std::size_t shard_;
  std::vector<NodeId> members_;
  TraceCapture capture_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  LatencyTracker* latency_ = nullptr;  // shard-thread use after wiring
};

}  // namespace msw
