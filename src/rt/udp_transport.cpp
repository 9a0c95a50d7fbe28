#include "rt/udp_transport.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace msw {

namespace {

/// Largest datagram we attempt; beyond this the copy is dropped (a real
/// UDP stack would EMSGSIZE). Far above any frame the layers emit.
constexpr std::size_t kMaxDatagram = 65000;

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

UdpTransport::UdpTransport(Executor& ex, UdpConfig cfg) : ThreadedTransport(ex), cfg_(cfg) {}

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
  loop_of(node).add_fd(fd, [this, node] { drain_socket(node); });
}

void UdpTransport::send_datagram(NodeId from, NodeId to, std::span<const Byte> bytes) {
  count_sent();
  if (bytes.size() > kMaxDatagram) {
    count_dropped();
    return;
  }
  const sockaddr_in& dst = addrs_[to.v];
  for (int attempt = 0; attempt <= cfg_.send_retries; ++attempt) {
    const ssize_t n =
        ::sendto(fds_[from.v], bytes.data(), bytes.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dst), sizeof dst);
    if (n >= 0) return;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOBUFS) break;
    ::sched_yield();  // transient: give the receiver a chance to drain
  }
  count_dropped();
}

void UdpTransport::send(NodeId from, NodeId to, Payload data) {
  send_datagram(from, to, data.view());
}

void UdpTransport::multicast(NodeId from, const std::vector<NodeId>& to, Payload data) {
  // Loopback "hardware multicast": one serialization of the bytes, one
  // sendto per destination (the kernel has no group fan-out for us here).
  const std::span<const Byte> bytes = data.view();
  for (const NodeId dst : to) send_datagram(from, dst, bytes);
}

void UdpTransport::drain_socket(NodeId node) {
  Byte buf[65536];
  const int fd = fds_[node.v];
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
    if (src.sin_addr.s_addr != htonl(INADDR_LOOPBACK) || it == port_to_node_.end()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);  // not from one of our nodes
      continue;
    }
    Bytes bytes(buf, buf + n);
    deliver(node, Packet{NodeId{it->second}, Payload(std::move(bytes))});
  }
}

}  // namespace msw
