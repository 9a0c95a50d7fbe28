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
#include "sim/scheduler.hpp"
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
  /// Whether the batched data plane is enabled for this process. When
  /// false, every batch route decays to a per-message loop, reproducing the
  /// unbatched execution exactly — the equivalence test's control arm.
  virtual bool batching() const { return true; }
  /// The scheduler's per-tick allocator, or nullptr when the process is not
  /// driven by a simulation scheduler (unit tests driving a layer bare).
  virtual TickArena* tick_arena() { return nullptr; }
};

/// Wiring handed to each layer: where its output messages go.
class LayerContext {
 public:
  using Route = std::function<void(Message)>;
  using BatchRoute = std::function<void(MessageBatch)>;

  LayerContext() = default;
  LayerContext(Services* services, Route send_down, Route deliver_up,
               BatchRoute send_down_batch = nullptr, BatchRoute deliver_up_batch = nullptr)
      : services_(services),
        send_down_(std::move(send_down)),
        deliver_up_(std::move(deliver_up)),
        send_down_batch_(std::move(send_down_batch)),
        deliver_up_batch_(std::move(deliver_up_batch)) {}

  /// Pass a message to the layer below (toward the network).
  void send_down(Message m) { send_down_(std::move(m)); }
  /// Pass a message to the layer above (toward the application).
  void deliver_up(Message m) { deliver_up_(std::move(m)); }

  /// Pass a whole run to the layer below. Falls back to the per-message
  /// route (preserving order) when no batch route is wired or batching is
  /// disabled for this process.
  void send_down(MessageBatch b) {
    if (b.empty()) return;
    if (send_down_batch_ && services_->batching()) {
      send_down_batch_(std::move(b));
    } else {
      for (Message& m : b) send_down_(std::move(m));
    }
  }
  /// Pass a whole run to the layer above; same fallback rule.
  void deliver_up(MessageBatch b) {
    if (b.empty()) return;
    if (deliver_up_batch_ && services_->batching()) {
      deliver_up_batch_(std::move(b));
    } else {
      for (Message& m : b) deliver_up_(std::move(m));
    }
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
  bool batching() const { return services_->batching(); }
  TickArena* tick_arena() { return services_->tick_arena(); }

  /// Flat scratch for batched header encodes: from the tick arena when one
  /// is available (recycled across ticks, zero steady-state allocation),
  /// otherwise a per-context fallback buffer. Either way the reference is
  /// valid only until the next scratch() call on a path without an arena,
  /// or until the tick ends with one — never stash it.
  Bytes& scratch() {
    if (TickArena* a = services_->tick_arena()) return a->scratch();
    fallback_scratch_.clear();
    return fallback_scratch_;
  }

  /// Index of this process in the member list (ring position).
  std::size_t self_index() const;
  /// Ring successor of this process in the member list.
  NodeId ring_successor() const;

  /// The per-process service provider — needed by layers that host nested
  /// chains (the switching protocol) to wire their sub-layers.
  Services* services() const { return services_; }

 private:
  Services* services_ = nullptr;
  Route send_down_;
  Route deliver_up_;
  BatchRoute send_down_batch_;
  BatchRoute deliver_up_batch_;
  Bytes fallback_scratch_;
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

  /// A run of messages heading toward the network. The default feeds each
  /// message through down() in order, so a layer without a batch
  /// implementation behaves exactly as if the run arrived message by
  /// message. Overrides must preserve that equivalence: same outputs, same
  /// order, same CPU charge total, same observable side effects.
  virtual void down_batch(MessageBatch b);

  /// A run of messages heading toward the application. The default feeds
  /// each message through up(), isolating failures per message: a
  /// DecodeError aborts only that message's traversal (logged and dropped),
  /// matching the unbatched world where each packet climbs the stack in its
  /// own handler event and Stack::on_packet drops it at the catch.
  virtual void up_batch(MessageBatch b);

  /// Wire this layer. Called by LayerChain (or tests driving a layer
  /// directly).
  void bind(LayerContext ctx) { ctx_ = std::move(ctx); }

 protected:
  LayerContext& ctx() { return ctx_; }
  const LayerContext& ctx() const { return ctx_; }

 private:
  LayerContext ctx_;
};

/// An ordered sequence of layers (index 0 = top) wired between a pair of
/// boundary routes. Presents the same down/up interface as a single layer.
class LayerChain {
 public:
  /// `to_network` receives messages leaving the bottom of the chain;
  /// `to_app` receives messages leaving the top. The batch boundary routes
  /// are optional: when absent, a batch reaching that boundary is unrolled
  /// through the per-message route in order.
  LayerChain(Services& services, std::vector<std::unique_ptr<Layer>> layers,
             LayerContext::Route to_network, LayerContext::Route to_app,
             LayerContext::BatchRoute to_network_batch = nullptr,
             LayerContext::BatchRoute to_app_batch = nullptr);

  LayerChain(const LayerChain&) = delete;
  LayerChain& operator=(const LayerChain&) = delete;

  void start();

  /// Inject a send at the top of the chain.
  void down_from_top(Message m);

  /// Inject a delivery at the bottom of the chain.
  void up_from_bottom(Message m);

  /// Inject a run of sends at the top of the chain. Callers gate on
  /// Services::batching(); the chain itself routes unconditionally.
  void down_from_top_batch(MessageBatch b);

  /// Inject a run of deliveries at the bottom of the chain.
  void up_from_bottom_batch(MessageBatch b);

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  LayerContext::Route to_network_;
  LayerContext::Route to_app_;
  LayerContext::BatchRoute to_network_batch_;
  LayerContext::BatchRoute to_app_batch_;
};

/// Factory producing one process's layer stack, top first. Invoked once per
/// member so every process runs an identical stack.
using LayerFactory =
    std::function<std::vector<std::unique_ptr<Layer>>(NodeId self, const std::vector<NodeId>& members)>;

}  // namespace msw
