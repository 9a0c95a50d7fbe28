// Real-socket transport: one UDP socket per node on 127.0.0.1, driven by
// the owning shard's epoll loop.
//
// Every node binds an ephemeral loopback port; the (port -> NodeId) map is
// built during wiring and read-only afterwards, so ingress resolves the
// sender without any header bytes on the wire.
//
// Every datagram is a bundle: the frames one node sends to one destination
// during one pass of its shard's event loop, each written as a LEB128 length
// followed by the frame — the protocol stack's bytes, unmodified (format in
// udpwire below). A send appends to the open bundle for (from, to); the
// first frame of a pass posts one flush task to the shard, and because the
// inbox is FIFO that task runs after every task already queued, then sends
// each open bundle with one sendto on the *sender's* socket. A frame that
// would overflow its bundle sends the bundle first, so any frame up to
// kMaxFrame still leaves, as a bundle of one; a larger one is counted as
// dropped. Frames keep their send order per (from, to), the only order UDP
// gives anyway. A send from any thread other than the sender's shard is
// posted to that shard, so bundle state is touched by its shard alone.
//
// Receipt is level-triggered epoll on the destination's socket, drained to
// EAGAIN on the destination's shard thread. A datagram is delivered only if
// its lengths tile it exactly, and then frame by frame, in order, each as
// its own Packet. A datagram that does not parse, one from any source that
// is not one of the transport's nodes, and a receive error are counted as
// rejected and never reach a stack. Kernel socket buffers are the only
// queue in between: a full receive buffer drops datagrams exactly like a
// real network, and the reliable layer's NACK/heartbeat machinery —
// unchanged — recovers them.
//
// packets_sent/delivered/dropped count frames, as on every backend; a
// failed sendto counts each of its frames as dropped. datagrams_sent()
// counts the bundles the kernel accepted.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <span>
#include <unordered_map>
#include <vector>

#include "rt/threaded_transport.hpp"
#include "util/bytes.hpp"

namespace msw {

/// The bundle codec, exposed for tests; UdpTransport's send and receive
/// paths are built on it. A bundle is a sequence of records, each a LEB128
/// frame length of at least 1 followed by that many frame bytes. A zero
/// length is malformed, so no run of zero bytes parses as traffic.
namespace udpwire {

/// Largest frame a bundle carries, and so the largest the transport sends.
inline constexpr std::size_t kMaxFrame = 65000;

/// Bytes the record of an `n`-byte frame takes in a bundle.
constexpr std::size_t record_size(std::size_t n) {
  std::size_t len = 1;
  for (std::size_t v = n; v >= 0x80; v >>= 7) ++len;
  return len + n;
}

/// Largest bundle: one record of kMaxFrame bytes (below UDP's 65507).
inline constexpr std::size_t kMaxBundle = record_size(kMaxFrame);

/// Append the record of `frame` (1..kMaxFrame bytes) to `out`.
void put_frame(Bytes& out, std::span<const Byte> frame);

/// Split `bundle` into its frames, in order, as views into `bundle`. Unless
/// the records tile it exactly, returns false and leaves `frames` empty: a
/// truncated varint, a length past the end, a zero length or trailing bytes
/// reject the whole bundle.
bool split(std::span<const Byte> bundle, std::vector<std::span<const Byte>>& frames);

}  // namespace udpwire

struct UdpConfig {
  /// SO_RCVBUF / SO_SNDBUF request per socket (the kernel may clamp).
  int rcvbuf_bytes = 1 << 22;
  int sndbuf_bytes = 1 << 21;
  /// Retries (with sched_yield) when sendto hits EAGAIN before the bundle
  /// is counted as dropped — UDP semantics, recovery belongs to the layers.
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

  /// The node's socket, so a test can send raw datagrams from a member's
  /// address.
  int socket_of(NodeId node) const { return fds_[node.v]; }

  /// Bundles the kernel accepted (each one sendto).
  std::uint64_t datagrams_sent() const { return datagrams_.load(std::memory_order_relaxed); }

  /// Ingress the transport refused: datagrams from a source that is not
  /// one of its nodes, datagrams that do not parse as a bundle, and receive
  /// errors other than EAGAIN/EINTR. Kept apart from packets_dropped(),
  /// which counts only its own traffic.
  std::uint64_t datagrams_rejected() const { return rejected_.load(std::memory_order_relaxed); }

  /// True when this process can bind loopback UDP sockets — probe for
  /// environments (sandboxes) where the backend must be skipped.
  static bool available();

 protected:
  void on_node_added(NodeId node) override;

 private:
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

  /// One (frame, destination) of the current pass.
  struct Frame {
    std::size_t offset;  // into Shard::arena
    std::uint32_t size;
    std::uint32_t next;  // next frame of the same bundle, or kEnd
  };
  /// The open bundle of one (from, to): a list through Shard::frames.
  struct Bundle {
    std::uint32_t head = kEnd;
    std::uint32_t tail = kEnd;
    std::uint32_t bytes = 0;  // encoded size so far
  };
  /// A shard's bundling state, touched only on its loop thread. Storage is
  /// kept across passes, so a steady state allocates nothing per frame.
  struct alignas(64) Shard {
    std::vector<std::uint32_t> nodes;  // the shard's nodes, in add order
    Bytes arena;                       // this pass's frame bytes; a multicast's once
    std::vector<Frame> frames;
    std::vector<Bundle> open;          // [local index of from * node_count() + to]
    std::vector<std::uint32_t> order;  // keys into `open`, by first frame
    Bytes datagram;                    // encode scratch
    std::vector<std::span<const Byte>> received;  // drain_socket's split scratch
    bool flush_posted = false;
  };

  /// Count `copies` frames as sent; false (and counted dropped) if the
  /// frame cannot be bundled.
  bool admit(std::span<const Byte> frame, std::size_t copies);
  /// Loop thread of `from`'s shard: add `frame` to the open bundles of
  /// (from, each of `to`).
  void enqueue(NodeId from, std::span<const NodeId> to, std::span<const Byte> frame);
  void flush(std::size_t shard);
  /// Send b's frames as one datagram and leave b empty.
  void send_bundle(Shard& s, NodeId from, NodeId to, Bundle& b);
  void drain_socket(NodeId node);

  UdpConfig cfg_;
  std::vector<int> fds_;                  // per node
  std::vector<sockaddr_in> addrs_;        // per node, 127.0.0.1:port
  std::vector<std::uint16_t> ports_;      // per node, host order
  std::vector<std::uint32_t> local_;      // per node, index in its shard's `nodes`
  std::unordered_map<std::uint16_t, std::uint32_t> port_to_node_;
  std::vector<Shard> shards_;             // per executor shard
  std::atomic<std::uint64_t> datagrams_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace msw
