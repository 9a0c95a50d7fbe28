// One process's protocol stack: application boundary on top, its node on
// a Transport at the bottom, a LayerChain in between.
//
// The Stack stamps every application send with a global identity
// (AppHeader) and reports Send/Deliver events to the group's TraceCapture,
// so captured traces match the paper's system model exactly. It is also
// the layers' Services provider: it owns the node's timer registrations,
// so destroying a Stack drops every timer its layers left pending.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/transport.hpp"
#include "stack/capture.hpp"
#include "stack/layer.hpp"

namespace msw {

class TelemetryHub;

/// Application-side delivery callback. For ordinary messages `id.kind` is
/// kData and `body` is the payload; membership layers may also deliver
/// view notifications (kind kView, body = encoded member list). The body
/// is a borrowed view of the (possibly shared) receive buffer — copy it if
/// it must outlive the callback.
using DeliverFn = std::function<void(const MsgId& id, std::span<const Byte> body)>;

class Stack : public Services {
 public:
  /// `self` must already exist on `transport` (the simulated Network,
  /// threaded loopback, or UDP sockets; the layers are the same on all).
  /// `members` is the full group (including self), identical at every
  /// member. `hub`, when given, wires this node's Tracer and
  /// MetricsRegistry into the telemetry plane; layers reach them via
  /// Services.
  Stack(Transport& transport, NodeId self, std::vector<NodeId> members,
        std::vector<std::unique_ptr<Layer>> layers, Rng rng, TraceCapture* capture = nullptr,
        TelemetryHub* hub = nullptr);
  ~Stack() override;

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Start all layers. Call after every stack in the group is constructed
  /// (layers may message peers from start()).
  void start();

  /// Multicast an application payload to the group.
  void send(Bytes body);

  /// Multicast a run of application payloads submitted at one instant. With
  /// batching enabled the run rides the batched data plane — one layer
  /// dispatch per layer and one network scatter for the whole run; with it
  /// disabled this is exactly a loop over send().
  void send_batch(std::vector<Bytes> bodies);

  /// Toggle the batched data plane for this process (default on). Turning
  /// it off makes every batch route decay to the per-message path — the
  /// control arm of the batched-vs-unbatched equivalence test.
  void set_batching(bool on) { batching_ = on; }

  /// Optional app-delivery hook. `sample_mask` gates it inline: the hook
  /// fires only for seqs with (seq & sample_mask) == 0, so a sampling
  /// consumer (rt latency stamping) costs unsampled deliveries one
  /// compare instead of an indirect call. 0 (default) = every delivery.
  void set_on_deliver(DeliverFn fn, std::uint64_t sample_mask = 0) {
    on_deliver_ = std::move(fn);
    deliver_mask_ = sample_mask;
  }

  /// Messages this process has submitted.
  std::uint64_t sent() const { return next_seq_; }
  /// Messages delivered to the application at this process.
  std::uint64_t delivered() const { return delivered_; }

  // Services interface (used by layers).
  NodeId self() const override { return self_; }
  const std::vector<NodeId>& members() const override { return members_; }
  Time now() const override { return transport_.now(); }
  TimerId set_timer(Duration delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  Rng& rng() override { return rng_; }
  void consume_cpu(Duration d) override { transport_.consume_cpu(self_, d); }
  Tracer& tracer() override { return *tracer_; }
  MetricsRegistry* metrics() override { return metrics_; }
  bool batching() const override { return batching_; }
  TickArena* tick_arena() override { return transport_.tick_arena(); }

  LayerChain& chain() { return *chain_; }

 private:
  void to_network(Message m);
  void to_app(Message m);
  void on_packet(Packet p);
  void to_network_batch(MessageBatch b);
  void to_app_batch(MessageBatch b);
  void on_packet_run(NodeId src, std::span<const Payload> run);

  Transport& transport_;
  NodeId self_;
  std::uint64_t next_timer_ = 1;
  /// Pending timers: TimerId -> the transport's token. Declared ahead of
  /// chain_, so layers may still cancel timers from their destructors.
  std::unordered_map<std::uint64_t, TransportTimer> timers_;
  std::vector<NodeId> members_;
  Rng rng_;
  TraceCapture* capture_;
  Tracer* tracer_;            // never null; the disabled singleton without a hub
  MetricsRegistry* metrics_;  // null without a hub
  std::uint32_t n_app_send_ = 0;
  std::uint32_t n_app_deliver_ = 0;
  std::unique_ptr<LayerChain> chain_;
  DeliverFn on_deliver_;
  std::uint64_t deliver_mask_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;
  bool batching_ = true;
  std::vector<Payload> payload_scratch_;  // reused by to_network_batch
};

}  // namespace msw
