// Runtime-boundary unit tests: the event loop's MPSC inbox and timers, the
// executor lifecycle, the threaded loopback and UDP backends, and the UDP
// bundle codec under hostile input.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rt/event_loop.hpp"
#include "rt/executor.hpp"
#include "rt/loopback_transport.hpp"
#include "rt/udp_transport.hpp"
#include "stack/group.hpp"
#include "switch/hybrid.hpp"
#include "util/rng.hpp"

#include "helpers.hpp"

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
  Group group(tr, 3, make_reliable_fifo_factory(), /*shard=*/1);
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
    for (std::size_t i = 0; i < kN; ++i) testing::post_send(group, i, body_of("m"));
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

TEST(LoopbackTransport, GroupCallFromItsShardRunsInline) {
  // A task on the group's shard that calls call() runs the function there
  // and then; posting it and waiting would wait on the waiting thread.
  Executor ex(2);
  LoopbackTransport tr(ex);
  Group group(tr, 2, make_reliable_fifo_factory(), /*shard=*/1);
  ex.start();
  group.start();
  std::atomic<bool> done{false};
  bool on_shard = false;  // written on the shard, read after the stop
  std::vector<int> order;
  group.post([&] {
    group.call([&] {
      on_shard = tr.loop_of(group.node(0)).on_loop_thread();
      order.push_back(1);
    });
    order.push_back(2);
    done.store(true);
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
  ex.stop();
  EXPECT_TRUE(on_shard);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(LoopbackTransport, IdleHybridRingsArePaced) {
  // Unpaced, an idle 10-member hybrid on threads passes SP's NORMAL token
  // ~200k times a second. Paced, each member forwards each ring's token at
  // most once per period, however fast or slow the host: the bound is on
  // counts, not CPU.
  constexpr std::size_t kN = 10;
  Executor ex(1);
  LoopbackTransport tr(ex);
  Group group(tr, kN, make_hybrid_total_order_factory());
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
  Group group(tr, 4, make_reliable_fifo_factory());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_GT(tr.port_of(group.node(i)), 0u);
  ex.start();
  group.start();
  constexpr std::uint64_t kMsgs = 100;
  for (std::uint64_t m = 0; m < kMsgs; ++m) {
    for (std::size_t i = 0; i < 4; ++i) testing::post_send(group, i, body_of("udp"));
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

/// Stops the executor when the scope ends, so an early ASSERT return never
/// destroys a transport or handler state that the executor's threads use.
struct StopOnExit {
  Executor& ex;
  ~StopOnExit() { ex.stop(); }
};

/// Run `fn` on `node`'s shard thread and wait for it.
void on_shard(UdpTransport& tr, NodeId node, const std::function<void()>& fn) {
  std::atomic<bool> done{false};
  tr.post(node, [&] {
    fn();
    done.store(true);
  });
  ASSERT_TRUE(eventually([&] { return done.load(); }));
}

/// Node b's receive log, written on its shard thread; read after stop.
struct Inbox {
  std::vector<Bytes> frames;
  std::atomic<std::size_t> count{0};
  PacketHandler handler() {
    return [this](Packet p) {
      const auto v = p.data.view();
      frames.emplace_back(v.begin(), v.end());
      count.fetch_add(1);
    };
  }
};

TEST(UdpTransport, FramesOfOneShardTaskLeaveAsOneDatagram) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  Inbox in;
  tr.set_handler(a, [](Packet) {});
  tr.set_handler(b, in.handler());
  const StopOnExit stop_on_exit{ex};
  ex.start();
  constexpr std::size_t kFrames = 100;
  on_shard(tr, a, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      tr.send(a, b, Payload(body_of("frame " + std::to_string(i))));
    }
  });
  ASSERT_TRUE(eventually([&] { return in.count.load() == kFrames; }));
  ex.stop();
  EXPECT_EQ(tr.datagrams_sent(), 1u);
  EXPECT_EQ(tr.packets_sent(), kFrames);
  EXPECT_EQ(tr.packets_delivered(), kFrames);
  ASSERT_EQ(in.frames.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(in.frames[i], body_of("frame " + std::to_string(i)));
  }
}

TEST(UdpTransport, FrameThatDoesNotFitLeavesInANewDatagram) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  Inbox in;
  tr.set_handler(a, [](Packet) {});
  tr.set_handler(b, in.handler());
  const StopOnExit stop_on_exit{ex};
  ex.start();
  // Two 40 kB frames cannot share a bundle; the small third one joins the
  // second. The largest frame the transport takes still leaves whole.
  const std::vector<Bytes> sent = {Bytes(40000, Byte{1}), Bytes(40000, Byte{2}),
                                   Bytes(10, Byte{3}), Bytes(udpwire::kMaxFrame, Byte{4})};
  on_shard(tr, a, [&] {
    for (const Bytes& f : sent) tr.send(a, b, Payload(Bytes(f)));
  });
  ASSERT_TRUE(eventually([&] { return in.count.load() == sent.size(); }));
  ex.stop();
  EXPECT_EQ(tr.datagrams_sent(), 3u);
  EXPECT_EQ(tr.packets_dropped(), 0u);
  EXPECT_EQ(in.frames, sent);
}

TEST(UdpTransport, MulticastBundlesPerDestination) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  std::vector<NodeId> nodes;
  std::vector<std::unique_ptr<Inbox>> inboxes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(tr.add_node());
    inboxes.push_back(std::make_unique<Inbox>());
    tr.set_handler(nodes.back(), inboxes.back()->handler());
  }
  const StopOnExit stop_on_exit{ex};
  ex.start();
  // Three multicasts and a point-to-point frame from node 0 in one pass:
  // one datagram per destination, each frame in its send order.
  on_shard(tr, nodes[0], [&] {
    for (int m = 0; m < 3; ++m) {
      tr.multicast(nodes[0], nodes, Payload(body_of("m" + std::to_string(m))));
    }
    tr.send(nodes[0], nodes[2], Payload(body_of("p2p")));
  });
  ASSERT_TRUE(eventually([&] {
    return inboxes[0]->count.load() == 3 && inboxes[1]->count.load() == 3 &&
           inboxes[2]->count.load() == 4 && inboxes[3]->count.load() == 3;
  }));
  ex.stop();
  EXPECT_EQ(tr.datagrams_sent(), 4u);
  EXPECT_EQ(tr.packets_sent(), 13u);
  EXPECT_EQ(tr.packets_delivered(), 13u);
  const std::vector<Bytes> three = {body_of("m0"), body_of("m1"), body_of("m2")};
  EXPECT_EQ(inboxes[0]->frames, three);
  EXPECT_EQ(inboxes[1]->frames, three);
  EXPECT_EQ(inboxes[3]->frames, three);
  EXPECT_EQ(inboxes[2]->frames,
            (std::vector<Bytes>{body_of("m0"), body_of("m1"), body_of("m2"), body_of("p2p")}));
}

/// Bundles that must not parse, each with what is wrong with it.
std::vector<std::pair<const char*, Bytes>> malformed_bundles() {
  std::vector<std::pair<const char*, Bytes>> out;
  out.emplace_back("truncated varint", Bytes{0x03, 'a', 'b', 'c', 0x80});
  out.emplace_back("length past the end", Bytes{0x05, 'a', 'b'});
  out.emplace_back("trailing bytes", Bytes{0x03, 'a', 'b', 'c', 'z'});
  out.emplace_back("zero-length frame", Bytes{0x02, 'a', 'b', 0x00, 0x01, 'c'});
  // 65,000 random bytes. Random bytes tile by chance about once in
  // thousands of buffers; UdpWire.RandomBytesNeverPartlyParse covers that
  // case, and this buffer's seed is fixed.
  Rng rng(23);
  Bytes noise(65000);
  for (Byte& b : noise) b = static_cast<Byte>(rng.next());
  out.emplace_back("65,000 random bytes", std::move(noise));
  return out;
}

TEST(UdpWire, BundleRoundTrips) {
  const std::vector<Bytes> frames = {body_of("x"), Bytes(127, Byte{7}), Bytes(128, Byte{8}),
                                     Bytes(udpwire::kMaxFrame, Byte{9})};
  for (const Bytes& f : frames) {
    Bytes one;
    udpwire::put_frame(one, f);
    EXPECT_EQ(one.size(), udpwire::record_size(f.size()));
  }
  Bytes bundle;
  for (const Bytes& f : frames) udpwire::put_frame(bundle, f);
  std::vector<std::span<const Byte>> got;
  ASSERT_TRUE(udpwire::split(bundle, got));
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(Bytes(got[i].begin(), got[i].end()), frames[i]) << "frame " << i;
  }
  EXPECT_EQ(udpwire::record_size(udpwire::kMaxFrame), udpwire::kMaxBundle);
  EXPECT_LE(udpwire::kMaxBundle, 65507u);  // the largest IPv4 UDP payload
  ASSERT_TRUE(udpwire::split({}, got));  // no frames at all
  EXPECT_TRUE(got.empty());
}

TEST(UdpWire, MalformedBundlesAreRejectedWhole) {
  for (const auto& [what, bytes] : malformed_bundles()) {
    std::vector<std::span<const Byte>> got{std::span<const Byte>(bytes)};
    EXPECT_FALSE(udpwire::split(bytes, got)) << what;
    EXPECT_TRUE(got.empty()) << what;
  }
}

TEST(UdpWire, RandomBytesNeverPartlyParse) {
  // Whatever the bytes, a split either rejects them with nothing left over,
  // or its frames encode back to exactly the input.
  Rng rng(5);
  std::vector<std::span<const Byte>> got;
  for (int i = 0; i < 2000; ++i) {
    Bytes noise(rng.below(300));
    for (Byte& b : noise) b = static_cast<Byte>(rng.below(4) == 0 ? rng.next() : rng.below(8));
    if (!udpwire::split(noise, got)) {
      EXPECT_TRUE(got.empty());
      continue;
    }
    Bytes again;
    for (const std::span<const Byte> f : got) udpwire::put_frame(again, f);
    EXPECT_EQ(again, noise);
  }
}

TEST(UdpTransport, MalformedBundleIsRejectedAndNeverDelivered) {
  if (!UdpTransport::available()) {
    GTEST_SKIP() << "cannot bind loopback UDP sockets in this environment";
  }
  Executor ex(1);
  UdpTransport tr(ex);
  const NodeId a = tr.add_node();
  const NodeId b = tr.add_node();
  Inbox in;
  tr.set_handler(a, [](Packet) {});
  tr.set_handler(b, in.handler());
  const StopOnExit stop_on_exit{ex};
  ex.start();

  // Each malformed datagram leaves from node a's own socket, so only the
  // bundle check can refuse it.
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(tr.port_of(b));
  const auto bad = malformed_bundles();
  for (const auto& [what, bytes] : bad) {
    ASSERT_EQ(::sendto(tr.socket_of(a), bytes.data(), bytes.size(), 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof dst),
              static_cast<ssize_t>(bytes.size()))
        << what;
  }
  ASSERT_TRUE(eventually([&] { return tr.datagrams_rejected() == bad.size(); }));

  // Node b still takes well-formed traffic, and only that.
  tr.send(a, b, Payload(body_of("ok")));
  ASSERT_TRUE(eventually([&] { return in.count.load() == 1; }));
  ex.stop();
  EXPECT_EQ(tr.datagrams_rejected(), bad.size());
  EXPECT_EQ(tr.packets_delivered(), 1u);
  EXPECT_EQ(in.frames, std::vector<Bytes>{body_of("ok")});
}

}  // namespace
}  // namespace msw
