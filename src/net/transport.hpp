// The substrate boundary: everything a protocol stack needs from the world
// below it.
//
// A Transport offers datagram send/multicast, a receive callback per node,
// one-shot timers, and a monotonic clock. The paper's SP and meta-property
// guarantees are properties of the layer stack, not of the medium, so the
// same src/stack layers (unchanged, no medium #ifdefs) run over any
// implementation of this interface:
//
//   Network            the deterministic discrete-event simulator
//                      (src/sim + src/net) — the reference implementation
//                      and the test substrate.
//   LoopbackTransport  in-process delivery between real threads through
//                      lock-free MPSC inboxes — the threading substrate.
//   UdpTransport       real UDP sockets on an epoll event loop — the wire
//                      substrate.
//
// Execution contract shared by all backends: each node belongs to exactly
// one execution context (the sim's single thread, or one executor shard),
// and every callback into a node — packet handler, timer — runs on that
// context, one at a time. Per-node single-threadedness is the invariant
// that lets layers stay lock-free; the runtime provides it, the layers
// assume it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"
#include "util/function_ref.hpp"
#include "util/payload.hpp"

namespace msw {

/// A datagram in flight. `src` is stamped by the medium; protocols must not
/// rely on it for *authenticated* identity — that is what the integrity
/// layer is for. The payload is a shared refcounted buffer: an
/// N-destination multicast hands out N Packets that alias one allocation
/// (hardware multicast in memory as on the wire).
struct Packet {
  NodeId src;
  Payload data;
};

/// Receiver callback installed per node. Move-only with inline storage:
/// installing a stack's receive hook never heap-allocates, and the
/// dispatch is one indirect call.
using PacketHandler = UniqueFunction<void(Packet)>;

/// Optional run receive callback: a coalesced run of same-instant packets
/// from one sender, delivered in one call. Nodes without one installed
/// receive runs through their PacketHandler, one call per packet, in the
/// same order.
using PacketRunHandler = UniqueFunction<void(NodeId src, std::span<const Payload> run)>;

/// Handle for a pending transport timer. Backends mint tokens unique for
/// the transport's lifetime; 0 is never issued.
struct TransportTimer {
  std::uint64_t v = 0;
  bool valid() const { return v != 0; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Create a node. `shard_hint` asks threaded backends to place the node
  /// on a specific executor shard (a group pins all members to one shard);
  /// the sim ignores it. Nodes must be created during wiring, before
  /// traffic flows.
  virtual NodeId add_node(std::size_t shard_hint = 0) = 0;

  /// Install the receive callback for a node (required before traffic).
  /// Invoked on the node's execution context.
  virtual void set_handler(NodeId node, PacketHandler handler) = 0;

  /// Optional coalesced-run receive callback (see PacketRunHandler). Only
  /// the sim backend ever invokes it; threaded backends deliver per packet.
  virtual void set_run_handler(NodeId node, PacketRunHandler handler) { (void)node; (void)handler; }

  /// Point-to-point datagram.
  virtual void send(NodeId from, NodeId to, Payload data) = 0;

  /// Multicast: every listed destination (including `from`, if listed)
  /// receives a copy. Copies share `data`'s buffer where the backend can
  /// arrange it.
  virtual void multicast(NodeId from, const std::vector<NodeId>& to, Payload data) = 0;

  /// Multicast a run: like calling multicast() once per element of `msgs`,
  /// in order. Stack::send_batch is the library's one caller. The sim
  /// coalesces a destination's same-instant arrivals into one scatter
  /// event; other backends loop.
  virtual void multicast_run(NodeId from, const std::vector<NodeId>& to,
                             std::span<const Payload> msgs) {
    for (const Payload& p : msgs) multicast(from, to, p);
  }

  /// One-shot timer on the node's execution context. Threaded backends
  /// require the call to come from that same context (layer code always
  /// does); the sim accepts it from anywhere in its single thread. The
  /// callback is move-only with inline storage, so arming a timer with a
  /// small closure never heap-allocates.
  virtual TransportTimer set_timer(NodeId node, Duration delay, UniqueFunction<void()> fn) = 0;

  /// Cancel a pending timer; the callback is dropped. Cancelling an
  /// already-fired or unknown timer is a no-op.
  virtual void cancel_timer(NodeId node, TransportTimer timer) = 0;

  /// Monotonic clock in microseconds: simulated time on the sim backend,
  /// wall time since transport construction on real backends.
  virtual Time now() const = 0;

  /// Model protocol processing cost. The sim charges the node's serial
  /// CPU; real backends do nothing — processing time there is real.
  virtual void consume_cpu(NodeId node, Duration d) { (void)node; (void)d; }
};

}  // namespace msw
