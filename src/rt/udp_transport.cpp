#include "rt/udp_transport.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace msw {

namespace udpwire {

void put_frame(Bytes& out, std::span<const Byte> frame) {
  Writer w(out);
  w.varint(frame.size());
  w.raw(frame);
}

bool split(std::span<const Byte> bundle, std::vector<std::span<const Byte>>& frames) {
  frames.clear();
  Reader r(bundle);
  try {
    while (!r.done()) {
      const std::uint64_t len = r.varint();
      if (len == 0 || len > r.remaining()) throw DecodeError("bundle: bad frame length");
      frames.push_back(r.raw(len));
    }
    return true;
  } catch (const DecodeError&) {
    frames.clear();  // a truncated varint or a bad length: nothing of it counts
    return false;
  }
}

}  // namespace udpwire

namespace {

int make_bound_socket(int rcvbuf, int sndbuf, sockaddr_in* bound) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof *bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(bound), &len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

UdpTransport::UdpTransport(Executor& ex, UdpConfig cfg)
    : ThreadedTransport(ex), cfg_(cfg), shards_(ex.shards()) {}

UdpTransport::~UdpTransport() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

bool UdpTransport::available() {
  sockaddr_in bound{};
  const int fd = make_bound_socket(1 << 16, 1 << 16, &bound);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

void UdpTransport::on_node_added(NodeId node) {
  sockaddr_in bound{};
  const int fd = make_bound_socket(cfg_.rcvbuf_bytes, cfg_.sndbuf_bytes, &bound);
  if (fd < 0) {
    throw std::runtime_error(std::string("UdpTransport: cannot create/bind UDP socket: ") +
                             std::strerror(errno));
  }
  fds_.push_back(fd);
  addrs_.push_back(bound);
  const std::uint16_t port = ntohs(bound.sin_port);
  ports_.push_back(port);
  port_to_node_.emplace(port, node.v);
  Shard& s = shards_[shard_of(node)];
  local_.push_back(static_cast<std::uint32_t>(s.nodes.size()));
  s.nodes.push_back(node.v);
  loop_of(node).add_fd(fd, [this, node] { drain_socket(node); });
}

bool UdpTransport::admit(std::span<const Byte> frame, std::size_t copies) {
  count_sent(copies);
  if (!frame.empty() && frame.size() <= udpwire::kMaxFrame) return true;
  count_dropped(copies);  // a real UDP stack would EMSGSIZE; empty is malformed
  return false;
}

void UdpTransport::send(NodeId from, NodeId to, Payload data) {
  if (!admit(data.view(), 1)) return;
  if (!loop_of(from).on_loop_thread()) {
    post(from, [this, from, to, data] { enqueue(from, {&to, 1}, data.view()); });
    return;
  }
  enqueue(from, {&to, 1}, data.view());
}

void UdpTransport::multicast(NodeId from, const std::vector<NodeId>& to, Payload data) {
  if (!admit(data.view(), to.size())) return;
  if (!loop_of(from).on_loop_thread()) {
    post(from, [this, from, to, data] { enqueue(from, to, data.view()); });
    return;
  }
  enqueue(from, to, data.view());
}

void UdpTransport::enqueue(NodeId from, std::span<const NodeId> to,
                           std::span<const Byte> frame) {
  const std::size_t shard = shard_of(from);
  Shard& s = shards_[shard];
  const std::size_t width = node_count();
  if (!s.flush_posted) {
    // First frame of the pass: nothing is open, so the table may be laid
    // out afresh (once, after wiring).
    s.flush_posted = true;
    s.open.resize(s.nodes.size() * width);
    ex_.loop(shard).post([this, shard] { flush(shard); });
  }
  // One copy of the bytes, however many destinations share them.
  const std::size_t offset = s.arena.size();
  s.arena.insert(s.arena.end(), frame.begin(), frame.end());
  const auto rec = static_cast<std::uint32_t>(udpwire::record_size(frame.size()));
  for (const NodeId dst : to) {
    const auto key = static_cast<std::uint32_t>(local_[from.v] * width + dst.v);
    Bundle& b = s.open[key];
    if (b.head == kEnd) {
      s.order.push_back(key);
    } else if (b.bytes + rec > udpwire::kMaxBundle) {
      send_bundle(s, from, dst, b);  // leaves b empty; the key stays in order
    }
    const auto idx = static_cast<std::uint32_t>(s.frames.size());
    s.frames.push_back(Frame{offset, static_cast<std::uint32_t>(frame.size()), kEnd});
    if (b.head == kEnd) {
      b.head = idx;
    } else {
      s.frames[b.tail].next = idx;
    }
    b.tail = idx;
    b.bytes += rec;
  }
}

void UdpTransport::flush(std::size_t shard) {
  Shard& s = shards_[shard];
  const std::size_t width = node_count();
  for (const std::uint32_t key : s.order) {
    send_bundle(s, NodeId{s.nodes[key / width]}, NodeId{static_cast<std::uint32_t>(key % width)},
                s.open[key]);
  }
  s.order.clear();
  s.frames.clear();
  s.arena.clear();
  s.flush_posted = false;
}

void UdpTransport::send_bundle(Shard& s, NodeId from, NodeId to, Bundle& b) {
  s.datagram.clear();
  std::uint64_t frames = 0;
  for (std::uint32_t i = b.head; i != kEnd; i = s.frames[i].next, ++frames) {
    const Frame& f = s.frames[i];
    udpwire::put_frame(s.datagram, {s.arena.data() + f.offset, f.size});
  }
  b = Bundle{};
  const sockaddr_in& dst = addrs_[to.v];
  for (int attempt = 0; attempt <= cfg_.send_retries; ++attempt) {
    if (::sendto(fds_[from.v], s.datagram.data(), s.datagram.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof dst) >= 0) {
      datagrams_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) break;
    ::sched_yield();  // transient: give the receiver a chance to drain
  }
  count_dropped(frames);
}

void UdpTransport::drain_socket(NodeId node) {
  Byte buf[65536];
  const int fd = fds_[node.v];
  std::vector<std::span<const Byte>>& frames = shards_[shard_of(node)].received;
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof src;
    const ssize_t n = ::recvfrom(fd, buf, sizeof buf, 0,
                                 reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // A pending socket error (e.g. an ICMP report). End this drain; the
      // level-triggered epoll brings the loop back for anything still queued.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto it = port_to_node_.find(ntohs(src.sin_port));
    if (src.sin_addr.s_addr != htonl(INADDR_LOOPBACK) || it == port_to_node_.end() ||
        !udpwire::split({buf, static_cast<std::size_t>(n)}, frames)) {
      // Not from one of our nodes, or not a bundle: nothing of it is delivered.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (const std::span<const Byte> f : frames) {
      deliver(node, Packet{NodeId{it->second}, Payload(Bytes(f.begin(), f.end()))});
    }
  }
}

}  // namespace msw
