// Runtime-boundary unit tests: the event loop's MPSC inbox and timers, the
// executor lifecycle, and the threaded loopback and UDP backends.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/executor.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/rt_group.hpp"
#include "rt/udp_transport.hpp"
#include "switch/hybrid.hpp"

namespace msw {
namespace {

Bytes body_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Spin until `pred` holds or ~5 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(EventLoop, RunsPostedTasksInFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) loop.post([&order, i] { order.push_back(i); });
  loop.post([&loop] { loop.stop(); });
  loop.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_GE(loop.tasks_run(), 101u);
}

TEST(EventLoop, ManyProducersAllTasksArrive) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });
  std::atomic<int> count{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&loop, &count] {
      for (int i = 0; i < kPerProducer; ++i) {
        loop.post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(eventually([&] { return count.load() == kProducers * kPerProducer; }));
  loop.stop();
  runner.join();
  EXPECT_EQ(count.load(), kProducers * kPerProducer);
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  const std::int64_t now = EventLoop::now_ns();
  std::vector<int> order;
  // Registered out of order; must fire by deadline.
  loop.add_timer(now + 30'000'000, [&order] { order.push_back(3); });
  loop.add_timer(now + 10'000'000, [&order] { order.push_back(1); });
  loop.add_timer(now + 20'000'000, [&order] { order.push_back(2); });
  loop.add_timer(now + 40'000'000, [&loop] { loop.stop(); });
  loop.run();
  ASSERT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.timers_fired(), 4u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  const std::int64_t now = EventLoop::now_ns();
  bool fired = false;
  const std::uint64_t t = loop.add_timer(now + 5'000'000, [&fired] { fired = true; });
  loop.cancel_timer(t);
  loop.cancel_timer(t);  // double-cancel is a no-op
  loop.add_timer(now + 15'000'000, [&loop] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.timers_fired(), 1u);
}

TEST(Executor, StartStopIsIdempotent) {
  Executor ex(3);
  EXPECT_EQ(ex.shards(), 3u);
  ex.start();
  std::atomic<int> ran{0};
  for (std::size_t s = 0; s < 3; ++s) ex.loop(s).post([&ran] { ++ran; });
  ASSERT_TRUE(eventually([&] { return ran.load() == 3; }));
  ex.stop();
  ex.stop();  // second stop is a no-op
  EXPECT_FALSE(ex.running());
}

TEST(LoopbackTransport, RawSendReachesHandlerOnOtherShard) {
  Executor ex(2);
  LoopbackTransport tr(ex);
  const NodeId a = tr.add_node(0);
  const NodeId b = tr.add_node(1);
  std::atomic<int> got{0};
  // Ping-pong: b echoes back to a; a counts.
  tr.set_handler(b, [&tr, a, b](Packet p) { tr.send(b, a, std::move(p.data)); });
  tr.set_handler(a, [&got](Packet) { got.fetch_add(1); });
  ex.start();
  for (int i = 0; i < 100; ++i) tr.send(a, b, Payload(body_of("ping")));
  ASSERT_TRUE(eventually([&] { return got.load() == 100; }));
  ex.stop();
  EXPECT_EQ(tr.packets_sent(), 200u);
  EXPECT_EQ(tr.packets_delivered(), 200u);
}

TEST(LoopbackTransport, ReliableFifoGroupDeliversEverythingInSenderOrder) {
  Executor ex(2);
  LoopbackTransport tr(ex);
  RtGroup group(tr, 3, make_reliable_fifo_factory(), /*shard=*/1);
  // Per-receiver, per-sender sequence log. Installed before start, read
  // after stop — the shard thread is the only writer in between.
  constexpr std::size_t kN = 3;
  std::vector<std::vector<std::vector<std::uint64_t>>> seqs(
      kN, std::vector<std::vector<std::uint64_t>>(kN));
  for (std::size_t i = 0; i < kN; ++i) {
    group.stack(i).set_on_deliver([&seqs, i](const MsgId& id, std::span<const Byte>) {
      seqs[i][id.sender].push_back(id.seq);
    });
  }
  ex.start();
  group.start();
  constexpr std::uint64_t kMsgs = 50;
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < kN; ++i) group.send(i, body_of("m"));
  }
  ASSERT_TRUE(eventually([&] { return group.total_delivered() == kN * kN * kMsgs; }));
  ex.stop();
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t s = 0; s < kN; ++s) {
      ASSERT_EQ(seqs[i][s].size(), kMsgs) << "receiver " << i << " sender " << s;
      for (std::uint64_t m = 0; m < kMsgs; ++m) {
        ASSERT_EQ(seqs[i][s][m], m) << "FIFO violated at receiver " << i;
      }
    }
  }
}

TEST(LoopbackTransport, IdleHybridRingsArePaced) {
  // Unpaced, an idle 10-member hybrid on threads passes SP's NORMAL token
  // ~200k times a second. Paced, each member forwards each ring's token at
  // most once per period, however fast or slow the host: the bound is on
  // counts, not CPU.
  constexpr std::size_t kN = 10;
  Executor ex(1);
  LoopbackTransport tr(ex);
  RtGroup group(tr, kN, make_hybrid_total_order_factory());
  ex.start();
  group.start();
  const auto counts = [&group] {
    std::uint64_t hops = 0;
    std::uint64_t visits = 0;
    group.call([&] {
      for (std::size_t i = 0; i < kN; ++i) {
        SwitchLayer& sp = switch_layer_of(group.stack(i));
        hops += sp.stats().token_hops;
        visits += static_cast<TokenLayer&>(sp.sub_layer(1, 0)).stats().token_visits;
      }
    });
    return std::make_pair(hops, visits);
  };
  const auto t0 = std::chrono::steady_clock::now();
  const auto [hops0, visits0] = counts();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto [hops1, visits1] = counts();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ex.stop();
  const auto periods = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count() / kTokenPacePeriod);
  const std::uint64_t bound = kN * (periods + 2);
  EXPECT_LE(hops1 - hops0, bound);
  EXPECT_LE(visits1 - visits0, bound);
  // Both rings still turn.
  EXPECT_GE(hops1 - hops0, kN);
  EXPECT_GE(visits1 - visits0, kN);
}

TEST(UdpTransport, ReliableFifoGroupDeliversOverRealSockets) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(2);
  UdpTransport tr(ex);
  RtGroup group(tr, 4, make_reliable_fifo_factory());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(tr.port_of(group.node(i)), 0u);
  ex.start();
  group.start();
  constexpr std::uint64_t kMsgs = 100;
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < 4; ++i) group.send(i, body_of("udp"));
  }
  // The ReliableLayer's NACK/heartbeat machinery recovers kernel-dropped
  // datagrams, so full delivery is guaranteed, not probabilistic.
  ASSERT_TRUE(eventually([&] { return group.total_delivered() == 4u * 4u * kMsgs; }));
  ex.stop();
  EXPECT_EQ(group.total_sent(), 4u * kMsgs);
}

TEST(UdpTransport, OversizedDatagramCountsAsDropped) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  tr.set_handler(b, [](Packet) {});
  ex.start();
  tr.send(a, b, Payload(Bytes(70000, Byte{0})));
  ex.stop();
  EXPECT_EQ(tr.packets_dropped(), 1u);
}

TEST(UdpTransport, ForeignDatagramIsCountedAndNeverDelivered) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  std::atomic<int> handled{0};
  tr.set_handler(a, [&handled](Packet p) {
    EXPECT_EQ(p.data.view().size(), 2u);  // only the transport's own "ok"
    handled.fetch_add(1);
  });
  tr.set_handler(b, [](Packet) {});
  ex.start();

  // A socket outside the transport aims a datagram at node a's port.
  const int foreign = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(foreign, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(tr.port_of(a));
  const Bytes junk = body_of("not one of ours");
  ASSERT_EQ(::sendto(foreign, junk.data(), junk.size(), 0, reinterpret_cast<sockaddr*>(&dst),
                     sizeof dst),
            static_cast<ssize_t>(junk.size()));
  ::close(foreign);
  ASSERT_TRUE(eventually([&] { return tr.datagrams_rejected() == 1u; }));

  // The node still takes its own traffic, and only that.
  tr.send(b, a, Payload(body_of("ok")));
  ASSERT_TRUE(eventually([&] { return handled.load() == 1; }));
  ex.stop();
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(tr.datagrams_rejected(), 1u);
  EXPECT_EQ(tr.packets_delivered(), 1u);
  EXPECT_EQ(tr.packets_dropped(), 0u);
}

}  // namespace
}  // namespace msw
