// Real-socket transport: one UDP socket per node on 127.0.0.1, driven by
// the owning shard's epoll loop.
//
// Every node binds an ephemeral loopback port; the (port -> NodeId) map is
// built during wiring and read-only afterwards, so ingress resolves the
// sender without any header bytes on the wire — the datagram payload is
// exactly the protocol stack's bytes. A datagram from any other source,
// and a receive error, is counted as rejected and never reaches a stack.
// Sends go out on the *sender's* socket from the sender's shard thread;
// receipt is level-triggered epoll on the destination's socket, drained to
// EAGAIN on the destination's shard thread. Kernel socket buffers are the
// only queue in between: a full receive buffer drops datagrams exactly like
// a real network, and the reliable layer's NACK/heartbeat machinery —
// unchanged — recovers them.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <unordered_map>
#include <vector>

#include "rt/threaded_transport.hpp"

namespace msw {

struct UdpConfig {
  /// SO_RCVBUF / SO_SNDBUF request per socket (the kernel may clamp).
  int rcvbuf_bytes = 1 << 22;
  int sndbuf_bytes = 1 << 21;
  /// Retries (with sched_yield) when sendto hits EAGAIN before the copy is
  /// counted as dropped — UDP semantics, recovery belongs to the layers.
  int send_retries = 3;
};

class UdpTransport final : public ThreadedTransport {
 public:
  /// Creates no sockets yet; add_node does. Throws std::runtime_error if
  /// socket creation/binding fails at add_node time (e.g. a sandbox with
  /// no network namespace).
  explicit UdpTransport(Executor& ex, UdpConfig cfg = {});
  ~UdpTransport() override;

  void send(NodeId from, NodeId to, Payload data) override;
  void multicast(NodeId from, const std::vector<NodeId>& to, Payload data) override;
  const char* backend_name() const override { return "udp"; }

  /// The UDP port a node is bound to (host byte order).
  std::uint16_t port_of(NodeId node) const { return ports_[node.v]; }

  /// Ingress the transport refused: datagrams from a source that is not
  /// one of its nodes, plus receive errors other than EAGAIN/EINTR. Kept
  /// apart from packets_dropped(), which counts only its own traffic.
  std::uint64_t datagrams_rejected() const { return rejected_.load(std::memory_order_relaxed); }

  /// True when this process can bind loopback UDP sockets — probe for
  /// environments (sandboxes) where the backend must be skipped.
  static bool available();

 protected:
  void on_node_added(NodeId node) override;

 private:
  void drain_socket(NodeId node);
  void send_datagram(NodeId from, NodeId to, std::span<const Byte> bytes);

  UdpConfig cfg_;
  std::vector<int> fds_;                  // per node
  std::vector<sockaddr_in> addrs_;        // per node, 127.0.0.1:port
  std::vector<std::uint16_t> ports_;      // per node, host order
  std::unordered_map<std::uint16_t, std::uint32_t> port_to_node_;
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace msw
