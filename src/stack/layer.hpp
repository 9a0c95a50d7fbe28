// Layer composition framework in the style of Horus / Ensemble.
//
// A Layer sees two streams of messages: `down(m)` carries sends from the
// layer above toward the network, `up(m)` carries deliveries from the layer
// below toward the application. The default implementations pass through,
// so a layer overrides only the directions it cares about. Layers are
// composed into a LayerChain; a chain between the application and the
// network is a Stack, and because a chain presents the same two-sided
// interface as a single layer, chains nest — the switching protocol hosts
// one chain per underlying protocol (Figure 1 of the paper).
//
// Every process in a group runs the same sequence of layer types (the
// paper's uniform-stack requirement); Group enforces this by constructing
// all stacks from one factory.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"
#include "stack/batch.hpp"
#include "stack/message.hpp"
#include "telemetry/tracer.hpp"
#include "util/rng.hpp"

namespace msw {

class MetricsRegistry;

/// Handle for a pending timer; see Services::set_timer.
struct TimerId {
  std::uint64_t v = 0;
  bool valid() const { return v != 0; }
  friend bool operator==(TimerId a, TimerId b) { return a.v == b.v; }
};

/// Per-process services a layer may use: identity, membership, virtual
/// time, timers, and a deterministic random stream. Provided by the Stack
/// and shared by every layer in the process, including nested chains.
class Services {
 public:
  virtual ~Services() = default;

  virtual NodeId self() const = 0;
  virtual const std::vector<NodeId>& members() const = 0;
  virtual Time now() const = 0;
  /// One-shot timer. The callback is dropped (not fired) if cancelled or if
  /// the process's stack is destroyed first.
  virtual TimerId set_timer(Duration delay, std::function<void()> fn) = 0;
  virtual void cancel_timer(TimerId id) = 0;
  virtual Rng& rng() = 0;
  /// Model protocol processing time: occupy this node's CPU for `d`.
  virtual void consume_cpu(Duration d) = 0;
  /// Per-node span emitter. Defaults to the disabled singleton so layers
  /// may emit unconditionally; stacks wired to a TelemetryHub override.
  virtual Tracer& tracer() { return Tracer::disabled(); }
  /// Per-node metrics registry, or nullptr when the stack was constructed
  /// without telemetry. Layers attach their counters in start().
  virtual MetricsRegistry* metrics() { return nullptr; }
};

class Layer;

/// Wiring handed to each layer: its neighbours in the chain. A message
/// passed down or up is a direct call into the neighbouring layer; at the
/// ends of a chain the neighbour is the chain's boundary, which hands the
/// message to the chain's owner.
class LayerContext {
 public:
  LayerContext() = default;
  LayerContext(Services* services, Layer* below, Layer* above)
      : services_(services), below_(below), above_(above) {}

  /// Pass a message to the layer below (toward the network).
  inline void send_down(Message m);
  /// Pass a message to the layer above (toward the application).
  inline void deliver_up(Message m);

  /// Pass a run to the layer below, one message at a time in order.
  void send_down(MessageBatch b) {
    for (Message& m : b) send_down(std::move(m));
  }
  /// Pass a run to the layer above, one message at a time in order.
  void deliver_up(MessageBatch b) {
    for (Message& m : b) deliver_up(std::move(m));
  }

  NodeId self() const { return services_->self(); }
  const std::vector<NodeId>& members() const { return services_->members(); }
  std::size_t member_count() const { return services_->members().size(); }
  Time now() const { return services_->now(); }
  TimerId set_timer(Duration delay, std::function<void()> fn) {
    return services_->set_timer(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) { services_->cancel_timer(id); }
  Rng& rng() { return services_->rng(); }
  void consume_cpu(Duration d) { services_->consume_cpu(d); }
  Tracer& tracer() { return services_->tracer(); }
  MetricsRegistry* metrics() { return services_->metrics(); }

  /// Index of this process in the member list (ring position).
  std::size_t self_index() const;
  /// Ring successor of this process in the member list.
  NodeId ring_successor() const;

  /// The per-process service provider — needed by layers that host nested
  /// chains (the switching protocol) to wire their sub-layers.
  Services* services() const { return services_; }

 private:
  Services* services_ = nullptr;
  Layer* below_ = nullptr;
  Layer* above_ = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string_view name() const = 0;

  /// Called once after the whole stack (and group) is wired; layers start
  /// timers or originate tokens here.
  virtual void start() {}

  /// A message from the layer above, heading toward the network.
  virtual void down(Message m) { ctx_.send_down(std::move(m)); }

  /// A message from the layer below, heading toward the application.
  virtual void up(Message m) { ctx_.deliver_up(std::move(m)); }

  /// A run of messages heading toward the network, fed through down() in
  /// order. No library code calls these two run hooks; they remain for
  /// layers built outside the library that still override them
  /// (perfbench's probes).
  virtual void down_batch(MessageBatch b) {
    for (Message& m : b) down(std::move(m));
  }

  /// A run of messages heading toward the application, fed through up()
  /// in order.
  virtual void up_batch(MessageBatch b) {
    for (Message& m : b) up(std::move(m));
  }

  /// Wire this layer. Called by LayerChain (or tests driving a layer
  /// directly).
  void bind(LayerContext ctx) { ctx_ = std::move(ctx); }

 protected:
  LayerContext& ctx() { return ctx_; }
  const LayerContext& ctx() const { return ctx_; }

 private:
  LayerContext ctx_;
};

void LayerContext::send_down(Message m) { below_->down(std::move(m)); }
void LayerContext::deliver_up(Message m) { above_->up(std::move(m)); }

/// An ordered sequence of layers (index 0 = top) between two boundary
/// routes. Presents the same down/up interface as a single layer.
class LayerChain {
 public:
  using Route = std::function<void(Message)>;

  /// `to_network` receives messages leaving the bottom of the chain;
  /// `to_app` receives messages leaving the top.
  LayerChain(Services& services, std::vector<std::unique_ptr<Layer>> layers, Route to_network,
             Route to_app);

  LayerChain(const LayerChain&) = delete;
  LayerChain& operator=(const LayerChain&) = delete;

  void start();

  /// Inject a send at the top of the chain.
  void down_from_top(Message m) { top_->down(std::move(m)); }

  /// Inject a delivery at the bottom of the chain.
  void up_from_bottom(Message m) { bottom_->up(std::move(m)); }

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  /// A chain boundary: whatever reaches it, from either side, leaves the
  /// chain through its route.
  class End final : public Layer {
   public:
    explicit End(Route route) : route_(std::move(route)) {}
    std::string_view name() const override { return "chain-end"; }
    void down(Message m) override { route_(std::move(m)); }
    void up(Message m) override { route_(std::move(m)); }

   private:
    Route route_;
  };

  std::vector<std::unique_ptr<Layer>> layers_;
  End network_end_;
  End app_end_;
  Layer* top_;     // entry for down_from_top: the first layer, or network_end_
  Layer* bottom_;  // entry for up_from_bottom: the last layer, or app_end_
};

/// Factory producing one process's layer stack, top first. Invoked once per
/// member so every process runs an identical stack.
using LayerFactory =
    std::function<std::vector<std::unique_ptr<Layer>>(NodeId self, const std::vector<NodeId>& members)>;

}  // namespace msw
